package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/types"
)

// TestSnapshotRebuildsDenseStructures checks that a snapshot round-trip
// reconstructs the sub-linear dense-index structures losslessly: the
// restored engine's MD region set is bit-identical (boxes and tuple IDs, in
// order), its centroid grid answers every lookup the original answers, and
// the 1D splice-maintained region array survives unchanged.
func TestSnapshotRebuildsDenseStructures(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	schema := testSchema(2)
	tuples := genTuples(rng, schema, 400, false)
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10})
	e := NewEngine(db, Options{N: 400})

	// Populate the MD index with many small regions (plus absorbing
	// overlaps) and the 1D index with touching intervals, through the same
	// Insert paths a live engine uses.
	attrs := []int{0, 1}
	idx := e.know.mdIndexFor(attrs)
	boxAt := func(lo0, lo1, w float64) query.Box {
		return query.Box{Dims: []types.Interval{
			{Lo: lo0, Hi: lo0 + w}, {Lo: lo1, Hi: lo1 + w},
		}}
	}
	var boxes []query.Box
	for i := 0; i < 60; i++ {
		b := boxAt(rng.Float64()*95, rng.Float64()*95, 0.5+rng.Float64())
		var inside []types.Tuple
		for _, tt := range tuples {
			if b.Contains([]float64{tt.Ord[0], tt.Ord[1]}) {
				inside = append(inside, tt)
			}
		}
		idx.Insert(b, inside)
		boxes = append(boxes, b)
	}
	e.know.dense1.Insert(0, types.Interval{Lo: 3, Hi: 5, HiOpen: true}, nil)
	e.know.dense1.Insert(0, types.Interval{Lo: 5, Hi: 8, LoOpen: true}, nil)

	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(hidden.MustDB(schema, tuples, hidden.Options{K: 10}), Options{N: 400})
	if err := e2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Region arrays are reconstructed losslessly and in order.
	idx2 := e2.know.mdIndexFor(attrs)
	got, want := idx2.Export(), idx.Export()
	if len(got) != len(want) {
		t.Fatalf("restored %d MD regions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Box.String() != want[i].Box.String() {
			t.Fatalf("region %d box %v, want %v", i, got[i].Box, want[i].Box)
		}
		if len(got[i].Tuples) != len(want[i].Tuples) {
			t.Fatalf("region %d has %d tuples, want %d", i, len(got[i].Tuples), len(want[i].Tuples))
		}
		for j := range want[i].Tuples {
			if got[i].Tuples[j].ID != want[i].Tuples[j].ID {
				t.Fatalf("region %d tuple %d: ID %d, want %d", i, j, got[i].Tuples[j].ID, want[i].Tuples[j].ID)
			}
		}
	}
	// The centroid grid is rebuilt to an equivalent shape and answers
	// identically, including for boxes absorbed along the way.
	st, st2 := idx.Stats(), idx2.Stats()
	if st2 != st {
		t.Errorf("grid stats after restore %+v, want %+v", st2, st)
	}
	for _, b := range boxes {
		r1, ok1 := idx.Lookup(b)
		r2, ok2 := idx2.Lookup(b)
		if ok1 != ok2 {
			t.Fatalf("lookup %v: original found=%v, restored found=%v", b, ok1, ok2)
		}
		if ok1 && (len(r1.Tuples) != len(r2.Tuples)) {
			t.Fatalf("lookup %v: original region has %d tuples, restored %d", b, len(r1.Tuples), len(r2.Tuples))
		}
	}
	// 1D regions: the splice discipline kept the both-open touch at 5
	// separate; the restored array must match exactly.
	r1d, r1d2 := e.know.dense1.Export(0), e2.know.dense1.Export(0)
	if len(r1d2) != len(r1d) {
		t.Fatalf("restored %d 1D regions, want %d", len(r1d2), len(r1d))
	}
	for i := range r1d {
		if r1d2[i].Range != r1d[i].Range {
			t.Fatalf("1D region %d range %v, want %v", i, r1d2[i].Range, r1d[i].Range)
		}
	}
}
