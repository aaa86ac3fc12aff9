package history

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/types"
)

func schema() *types.Schema {
	return types.MustSchema([]types.Attribute{
		{Name: "a", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "b", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "c", Kind: types.Categorical, Values: []string{"x", "y"}},
	})
}

func tuples(rng *rand.Rand, n int) []types.Tuple {
	out := make([]types.Tuple, n)
	for i := range out {
		out[i] = types.Tuple{
			ID:  i,
			Ord: []float64{rng.Float64() * 100, rng.Float64() * 100, 0},
			Cat: map[string]string{"c": []string{"x", "y"}[rng.Intn(2)]},
		}
	}
	return out
}

func TestAddDeduplicates(t *testing.T) {
	s := NewStore(schema())
	tp := types.Tuple{ID: 1, Ord: []float64{1, 2, 0}}
	if got := s.Add(tp, tp); got != 1 {
		t.Fatalf("Add returned %d, want 1", got)
	}
	if got := s.Add(tp); got != 0 {
		t.Fatalf("re-Add returned %d, want 0", got)
	}
	if s.Size() != 1 || !s.Has(1) || s.Has(2) {
		t.Fatal("membership broken")
	}
	got, ok := s.Get(1)
	if !ok || got.Ord[0] != 1 {
		t.Fatal("Get broken")
	}
}

// TestMinMaxMatchingProperty compares the indexed lookups against a brute
// force scan across random stores, queries, and intervals.
func TestMinMaxMatchingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		s := NewStore(schema())
		all := tuples(rng, 30+rng.Intn(100))
		s.Add(all...)
		q := query.New()
		if rng.Intn(2) == 0 {
			q = q.WithCat("c", "x")
		}
		attr := rng.Intn(2)
		lo := rng.Float64() * 90
		iv := types.Interval{
			Lo: lo, Hi: lo + rng.Float64()*30,
			LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
		}
		// Brute force.
		var wantMin, wantMax *types.Tuple
		for i := range all {
			tp := all[i]
			if !q.Matches(tp) || !iv.Contains(tp.Ord[attr]) {
				continue
			}
			if wantMin == nil || tp.Ord[attr] < wantMin.Ord[attr] {
				wantMin = &all[i]
			}
			if wantMax == nil || tp.Ord[attr] > wantMax.Ord[attr] {
				wantMax = &all[i]
			}
		}
		gotMin, okMin := s.MinMatching(q, attr, iv)
		gotMax, okMax := s.MaxMatching(q, attr, iv)
		if (wantMin != nil) != okMin || (wantMax != nil) != okMax {
			return false
		}
		if okMin && gotMin.Ord[attr] != wantMin.Ord[attr] {
			return false
		}
		if okMax && gotMax.Ord[attr] != wantMax.Ord[attr] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestScanFromIncremental: a scan from row 0 visits exactly the matching
// tuples, and passing the returned mark back as the next from visits only
// rows added since, each once.
func TestScanFromIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewStore(schema())
	all := tuples(rng, 120)
	q := query.New().WithCat("c", "y")
	seen := make(map[int]bool)
	visit := func(v colstore.View, row int) {
		id := v.ID(row)
		if seen[id] {
			t.Fatalf("t#%d visited twice", id)
		}
		seen[id] = true
	}
	mark := 0
	for _, batch := range [][]types.Tuple{all[:50], all[50:51], all[51:]} {
		s.Add(batch...)
		mark = s.ScanFrom(q, mark, visit)
		if mark != s.Size() {
			t.Fatalf("mark = %d, want store size %d", mark, s.Size())
		}
	}
	n := 0
	for _, tp := range all {
		if q.Matches(tp) {
			n++
			if !seen[tp.ID] {
				t.Fatalf("t#%d matches but was not visited", tp.ID)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("visited %d tuples, want the %d matching", len(seen), n)
	}
	if got := s.ScanFrom(q, mark, visit); got != mark {
		t.Fatalf("rescan from the mark = %d, want %d unchanged", got, mark)
	}
}

// TestIndexRebuildAfterAdd ensures lookups stay correct as tuples stream in
// (the index is rebuilt lazily).
func TestIndexRebuildAfterAdd(t *testing.T) {
	s := NewStore(schema())
	s.Add(types.Tuple{ID: 1, Ord: []float64{50, 0, 0}})
	if got, ok := s.MinMatching(query.New(), 0, types.FullInterval()); !ok || got.ID != 1 {
		t.Fatal("initial lookup broken")
	}
	s.Add(types.Tuple{ID: 2, Ord: []float64{10, 0, 0}})
	if got, ok := s.MinMatching(query.New(), 0, types.FullInterval()); !ok || got.ID != 2 {
		t.Fatal("lookup after Add did not see the new minimum")
	}
}
