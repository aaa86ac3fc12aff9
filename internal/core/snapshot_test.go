package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/segment"
	"repro/internal/types"
)

// TestSnapshotRoundTrip: a warm-restarted engine must answer a repeated
// query for (almost) no upstream cost, and still exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	schema := testSchema(2)
	n := 2000
	tuples := make([]types.Tuple, n)
	for i := range tuples {
		ord := make([]float64, schema.Len())
		if i < n/3 {
			ord[0] = 0.5 + rng.Float64()*0.05
		} else {
			ord[0] = 1 + rng.Float64()*99
		}
		ord[1] = rng.Float64() * 100
		tuples[i] = types.Tuple{ID: i, Ord: ord, Cat: map[string]string{"cat": "x"}}
	}
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10, Ranker: sys})

	// Warm up an engine (builds history + a dense region), snapshot it.
	e1 := NewEngine(db, Options{N: n})
	cur := e1.NewOneDCursor(query.New(), 0, ranking.Asc, Rerank)
	want, err := TopH(cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e1.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh engine, load the snapshot, repeat the query.
	db.ResetCounter()
	e2 := NewEngine(db, Options{N: n})
	if err := e2.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if e2.History().Size() != e1.History().Size() {
		t.Fatalf("history size %d, want %d", e2.History().Size(), e1.History().Size())
	}
	if e2.DenseIndex1D().Regions(0) != e1.DenseIndex1D().Regions(0) {
		t.Fatal("dense regions lost")
	}
	cur2 := e2.NewOneDCursor(query.New(), 0, ranking.Asc, Rerank)
	got, err := TopH(cur2, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := ranking.NewSingle("1d", 0, ranking.Asc)
	assertSameRanking(t, r, got, want)
	// The warm engine should answer mostly from state: far fewer queries
	// than a cold run (which cost well over 20 here).
	if db.QueryCount() > 15 {
		t.Errorf("warm repeat cost %d queries, want ≤ 15", db.QueryCount())
	}
}

// TestSnapshotProbeWarmRestart: the probe-coalescing LRU survives restarts. A probe answered completely before the snapshot must
// cost a restarted engine zero upstream queries — warm at the probe level,
// not just the tuple level.
func TestSnapshotProbeWarmRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	db, _ := newTestDB(t, rng, 2, 500, 10, false, nil)
	e1 := NewEngine(db, Options{N: 500})
	sess1 := e1.NewSession()

	// Narrow probes with complete (valid or underflow) answers: only those
	// are cacheable, and only complete answers are persisted.
	probes := []query.Query{
		query.New().WithRange(0, types.ClosedInterval(10, 12)).WithCat("cat", "x"),
		query.New().WithRange(1, types.ClosedInterval(40, 41)),
		query.New().WithRange(0, types.ClosedInterval(200, 300)), // underflow
	}
	want := make([]hidden.Result, len(probes))
	for i, q := range probes {
		res, err := sess1.issue(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Overflow {
			t.Fatalf("precondition: probe %d (%s) overflowed; pick a narrower test query", i, q)
		}
		want[i] = res
	}
	if e1.ProbeCacheEntries() != len(probes) {
		t.Fatalf("probe cache holds %d entries, want %d", e1.ProbeCacheEntries(), len(probes))
	}
	var buf bytes.Buffer
	if err := e1.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh engine, load, repeat every probe.
	e2 := NewEngine(db, Options{N: 500})
	if err := e2.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if e2.ProbeCacheEntries() != len(probes) {
		t.Fatalf("restored probe cache holds %d entries, want %d", e2.ProbeCacheEntries(), len(probes))
	}
	db.ResetCounter()
	sess2 := e2.NewSession()
	for i, q := range probes {
		res, err := sess2.issue(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != len(want[i].Tuples) {
			t.Fatalf("probe %d: warm answer has %d tuples, want %d", i, len(res.Tuples), len(want[i].Tuples))
		}
		for j := range res.Tuples {
			if res.Tuples[j].ID != want[i].Tuples[j].ID {
				t.Fatalf("probe %d rank %d: warm ID %d, want %d (rank order must survive)",
					i, j, res.Tuples[j].ID, want[i].Tuples[j].ID)
			}
		}
	}
	if n := db.QueryCount(); n != 0 {
		t.Errorf("repeated probes after restart cost %d upstream queries, want 0", n)
	}
	if n := sess2.Queries(); n != 0 {
		t.Errorf("repeated probes after restart charged the session %d queries, want 0", n)
	}
}

// TestSnapshotSaveUnderLoadStaysWarm covers the acceptance criterion
// end-to-end: a snapshot taken while concurrent sessions are mid-flight must
// reload with the probe cache warm enough that a previously answered probe
// costs zero upstream queries.
func TestSnapshotSaveUnderLoadStaysWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	db, _ := newTestDB(t, rng, 2, 600, 8, true, systemRankers(2)[2])
	e := NewEngine(db, Options{N: 600})

	// Pin one complete probe into the cache before the storm.
	pinned := query.New().WithRange(0, types.ClosedInterval(20, 21)).WithCat("cat", "y")
	res, err := e.NewSession().issue(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow {
		t.Fatal("precondition: pinned probe overflowed; pick a narrower test query")
	}

	// Save while a concurrent workload hammers the engine.
	items := concurrentWorkload(rng)
	var wg sync.WaitGroup
	errs := make(chan error, len(items))
	for _, it := range items {
		wg.Add(1)
		go func(it concurrentWorkItem) {
			defer wg.Done()
			cur, err := e.NewSession().NewCursor(it.q, it.r, it.v)
			if err != nil {
				errs <- err
				return
			}
			if _, err := TopH(cur, it.h); err != nil {
				errs <- err
			}
		}(it)
	}
	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	warm := NewEngine(db, Options{N: 600})
	if err := warm.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	db.ResetCounter()
	sess := warm.NewSession()
	if _, err := sess.issue(pinned); err != nil {
		t.Fatal(err)
	}
	if n := db.QueryCount(); n != 0 {
		t.Errorf("pinned probe after under-load restart cost %d upstream queries, want 0", n)
	}
	if n := sess.Queries(); n != 0 {
		t.Errorf("pinned probe after under-load restart charged %d, want 0", n)
	}
}

// TestSnapshotProbeFingerprintMismatch: cached probe answers replay one
// specific upstream's responses, so importing a snapshot against an
// upstream with a different k or system ranking must fail as a whole and
// leave the engine cold.
func TestSnapshotProbeFingerprintMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	db, tuples := newTestDB(t, rng, 2, 300, 10, false, nil)
	e1 := NewEngine(db, Options{N: 300})
	if _, err := e1.NewSession().issue(query.New().WithRange(0, types.ClosedInterval(10, 12))); err != nil {
		t.Fatal(err)
	}
	if e1.ProbeCacheEntries() == 0 {
		t.Fatal("precondition: no probe cached")
	}
	var buf bytes.Buffer
	if err := e1.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Same schema and corpus, different system-k: the import fails.
	dbK := hidden.MustDB(db.Schema(), tuples, hidden.Options{K: 7})
	eK := NewEngine(dbK, Options{N: 300})
	if err := eK.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("k-mismatched import succeeded, want an error")
	}
	assertColdEngine(t, eK)

	// Different system ranking, same k: the import fails too.
	sys := hidden.RankerAdapter{R: ranking.NewSingle("other-sys", 1, ranking.Desc)}
	dbR := hidden.MustDB(db.Schema(), tuples, hidden.Options{K: 10, Ranker: sys})
	eR := NewEngine(dbR, Options{N: 300})
	if err := eR.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("ranker-mismatched import succeeded, want an error")
	}
	assertColdEngine(t, eR)

	// Matching upstream: probes restore.
	eOK := NewEngine(db, Options{N: 300})
	if err := eOK.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if eOK.ProbeCacheEntries() != e1.ProbeCacheEntries() {
		t.Errorf("matching load restored %d probe entries, want %d", eOK.ProbeCacheEntries(), e1.ProbeCacheEntries())
	}
}

// assertColdEngine fails unless e holds no knowledge at all: no history,
// no 1D or MD dense region, no cached probe.
func assertColdEngine(t *testing.T, e *Engine) {
	t.Helper()
	if n := e.History().Size(); n != 0 {
		t.Errorf("engine holds %d history tuples, want 0", n)
	}
	for _, attr := range e.db.Schema().OrdinalIndexes() {
		if n := e.DenseIndex1D().Regions(attr); n != 0 {
			t.Errorf("engine holds %d 1D regions on attribute %d, want 0", n, attr)
		}
	}
	if n := e.MDDenseRegions(); n != 0 {
		t.Errorf("engine holds %d MD regions, want 0", n)
	}
	if n := e.ProbeCacheEntries(); n != 0 {
		t.Errorf("engine holds %d cached probes, want 0", n)
	}
}

// TestSnapshotValidation: malformed knowledge is rejected by the one loader
// (applyDelta) — and so by both data-dir replay and snapshot import — and a
// rejected delta leaves the engine cold. The records are CRC-valid, so
// only these checks stop them: a short history tuple would otherwise be
// served as an answer.
func TestSnapshotValidation(t *testing.T) {
	db, _, ref := persistTestWorld(t, 62)
	fp := ref.PersistFingerprint()
	tuple := func(id int, ord ...float64) segment.Tuple {
		return segment.Tuple{ID: id, Ord: ord, Cat: map[string]string{"cat": "x"}}
	}
	good := tuple(100000, 1, 2, 0)
	withGood := func(d segment.Delta) *segment.Delta {
		d.HistHi, d.Hist = 1, []segment.Tuple{good}
		return &d
	}
	unit := segment.Dim{Lo: 0, Hi: 1}
	ids := []int{good.ID}
	cases := []struct {
		name string
		d    *segment.Delta
	}{
		{"history tuple with 1 value", &segment.Delta{HistHi: 1, Hist: []segment.Tuple{tuple(100000, 1)}}},
		{"dense1 on attribute 7", withGood(segment.Delta{Dense1: []segment.Dense1Op{{Attr: 7, Dim: unit, IDs: ids}}})},
		{"MD on attribute 9", withGood(segment.Delta{DenseMD: []segment.MDOp{{Attrs: []int{0, 9}, Dims: []segment.Dim{unit, unit}, IDs: ids}}})},
		{"inline tuple with 4 values", &segment.Delta{Tuples: []segment.Tuple{tuple(7, 1, 2, 3, 4)}}},
		{"dense1 on negative attribute", withGood(segment.Delta{Dense1: []segment.Dense1Op{{Attr: -1, Dim: unit, IDs: ids}}})},
		{"MD attributes descending", withGood(segment.Delta{DenseMD: []segment.MDOp{{Attrs: []int{1, 0}, Dims: []segment.Dim{unit, unit}, IDs: ids}}})},
		{"MD attribute repeated", withGood(segment.Delta{DenseMD: []segment.MDOp{{Attrs: []int{0, 0}, Dims: []segment.Dim{unit, unit}, IDs: ids}}})},
		{"MD with 1 dim for 2 attributes", withGood(segment.Delta{DenseMD: []segment.MDOp{{Attrs: []int{0, 1}, Dims: []segment.Dim{unit}, IDs: ids}}})},
		{"MD without attributes", withGood(segment.Delta{DenseMD: []segment.MDOp{{IDs: ids}}})},
		{"dangling dense1 reference", withGood(segment.Delta{Dense1: []segment.Dense1Op{{Attr: 0, Dim: unit, IDs: []int{42}}}})},
		{"dangling MD reference", withGood(segment.Delta{DenseMD: []segment.MDOp{{Attrs: []int{0, 1}, Dims: []segment.Dim{unit, unit}, IDs: []int{42}}}})},
		{"dangling probe reference", withGood(segment.Delta{Probes: []segment.ProbeOp{{Key: "TRUE", IDs: []int{42}}}})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(db, Options{N: 400})
			if err := e.applyDelta(c.d); err == nil {
				t.Error("applyDelta accepted the delta")
			}
			assertColdEngine(t, e)

			var buf bytes.Buffer
			if err := segment.WriteSnapshot(&buf, fp, c.d); err != nil {
				t.Fatal(err)
			}
			e = NewEngine(db, Options{N: 400})
			if err := e.LoadSnapshot(&buf); err == nil {
				t.Error("LoadSnapshot accepted the delta")
			}
			assertColdEngine(t, e)
		})
	}

	// The same well-formed delta loads, so the cases above fail for the
	// reason they name.
	okDelta := withGood(segment.Delta{Dense1: []segment.Dense1Op{{Attr: 0, Dim: unit, IDs: ids}}})
	if err := NewEngine(db, Options{N: 400}).applyDelta(okDelta); err != nil {
		t.Fatalf("well-formed delta rejected: %v", err)
	}

	// Envelope errors: not a segment file, another format version, another
	// upstream's schema.
	for name, raw := range map[string]string{
		"malformed JSON":  `{`,
		"format version":  `{"format":99,"fingerprint":{"schema":["A0","A1","cat"]},"deltas":[]}`,
		"schema mismatch": `{"format":1,"fingerprint":{"schema":["a","b","c"]},"deltas":[]}`,
		"schema arity":    `{"format":1,"fingerprint":{"schema":["only-one"]},"deltas":[]}`,
		"null delta":      `{"format":1,"fingerprint":{"schema":["A0","A1","cat"]},"deltas":[null]}`,
	} {
		if err := NewEngine(db, Options{N: 400}).LoadSnapshot(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: import accepted", name)
		}
	}

	// An engine with persistence attached gets its knowledge from its data
	// dir; an import into it is refused.
	e := NewEngine(db, Options{N: 400})
	p, err := e.AttachPersistence(openStore(t, e, t.TempDir(), segment.Options{}), PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var buf bytes.Buffer
	if err := segment.WriteSnapshot(&buf, fp, okDelta); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadSnapshot(&buf); err == nil {
		t.Error("import into a persisting engine accepted")
	}
}

// TestSnapshotImportsDataDirSegment: export and the data dir share one
// codec, so a compacted data dir's segment file imports as a snapshot and
// rebuilds the same knowledge.
func TestSnapshotImportsDataDirSegment(t *testing.T) {
	dir := t.TempDir()
	db, tuples, e1 := persistTestWorld(t, 72)
	p, err := e1.AttachPersistence(openStore(t, e1, dir, segment.Options{}), PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two checkpoints, so compaction has records to fold.
	runPersistWorkload(t, e1, tuples)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.NewSession().issue(query.New().WithRange(1, types.ClosedInterval(60, 61))); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.store.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("compacted data dir holds segments %v (%v), want exactly one", segs, err)
	}
	f, err := os.Open(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e2 := NewEngine(db, Options{N: 400})
	if err := e2.LoadSnapshot(f); err != nil {
		t.Fatal(err)
	}
	assertSameKnowledge(t, e2, e1)
}

// newMDDenseTestDB builds a 2-ordinal-attribute corpus with a tight cluster
// of clustered tuples inside [50, 50.3]² — a certified dense region for the
// default thresholds at n=1200, k=10 — and the rest spread uniformly.
// Values are unique (general positioning not assumed; tie probes are point
// queries with singleton answers).
func newMDDenseTestDB(t *testing.T) (*hidden.DB, []types.Tuple) {
	t.Helper()
	rng := rand.New(rand.NewSource(90))
	schema := testSchema(2)
	n := 1200
	tuples := make([]types.Tuple, n)
	for i := range tuples {
		ord := make([]float64, schema.Len())
		if i < 60 {
			ord[0] = 50 + float64(i)*0.005
			ord[1] = 50 + float64((i*37)%60)*0.005
		} else {
			ord[0] = rng.Float64() * 100
			ord[1] = rng.Float64() * 100
		}
		tuples[i] = types.Tuple{ID: i, Ord: ord, Cat: map[string]string{"cat": "x"}}
	}
	sys := hidden.RankerAdapter{R: ranking.NewSingle("sys", 0, ranking.Desc)}
	return hidden.MustDB(schema, tuples, hidden.Options{K: 10, Ranker: sys}), tuples
}

// TestSnapshotV3MDWarmRestart: a restarted engine importing a snapshot
// answers an MD-RERANK session over a
// previously-crawled dense region with ZERO upstream TopK calls — the dense
// region comes from the persisted MD index and the tie probes from the
// persisted probe LRU.
func TestSnapshotV3MDWarmRestart(t *testing.T) {
	db, all := newMDDenseTestDB(t)
	rk := ranking.MustLinear("sum", []int{0, 1}, []float64{1, 1})
	q := query.New().
		WithRange(0, types.ClosedInterval(50, 50.3)).
		WithRange(1, types.ClosedInterval(50, 50.3))

	// Cold run: the query box overflows, qualifies as dense, and is
	// crawled into the MD index.
	e1 := NewEngine(db, Options{N: 1200})
	sess1 := e1.NewSession()
	cur1, err := sess1.NewCursor(q, rk, Rerank)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopH(cur1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sess1.Queries() == 0 {
		t.Fatal("precondition: cold MD-RERANK run cost 0 queries")
	}
	if e1.MDDenseRegions() == 0 {
		t.Fatal("precondition: cold run crawled no MD dense region")
	}
	var buf bytes.Buffer
	if err := e1.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh engine, import the snapshot, repeat the session.
	db.ResetCounter()
	e2 := NewEngine(db, Options{N: 1200})
	if err := e2.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if e2.MDDenseRegions() != e1.MDDenseRegions() {
		t.Fatalf("restored %d MD dense regions, want %d", e2.MDDenseRegions(), e1.MDDenseRegions())
	}
	sess2 := e2.NewSession()
	cur2, err := sess2.NewCursor(q, rk, Rerank)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TopH(cur2, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, rk, got, want)
	full := oracleTopH(all, q, rk, 1<<30)
	oracle := full
	if len(oracle) > 5 {
		oracle = oracle[:5]
	}
	assertSameRanking(t, rk, got, oracle, full)
	if n := db.QueryCount(); n != 0 {
		t.Errorf("MD-RERANK session over a previously-crawled dense region cost %d upstream queries after restart, want 0", n)
	}
	if n := sess2.Queries(); n != 0 {
		t.Errorf("warm session charged %d queries, want 0", n)
	}
}

// TestSnapshotMDFingerprintMismatch: a crawled MD region's authority assumes
// the same corpus, so importing against an upstream with a different
// fingerprint must fail and leave the engine cold.
func TestSnapshotMDFingerprintMismatch(t *testing.T) {
	db, tuples := newMDDenseTestDB(t)
	rk := ranking.MustLinear("sum", []int{0, 1}, []float64{1, 1})
	q := query.New().
		WithRange(0, types.ClosedInterval(50, 50.3)).
		WithRange(1, types.ClosedInterval(50, 50.3))
	e1 := NewEngine(db, Options{N: 1200})
	cur, err := e1.NewCursor(q, rk, Rerank)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TopH(cur, 5); err != nil {
		t.Fatal(err)
	}
	if e1.MDDenseRegions() == 0 {
		t.Fatal("precondition: no MD dense region crawled")
	}
	// A crawled 1D region too: the fingerprint gate covers both families.
	var clustered []types.Tuple
	for _, tu := range tuples {
		if tu.Ord[0] >= 50 && tu.Ord[0] <= 50.3 {
			clustered = append(clustered, tu)
		}
	}
	e1.know.dense1.Insert(0, types.ClosedInterval(50, 50.3), clustered)
	var buf bytes.Buffer
	if err := e1.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Different system-k: the import fails and nothing loads — no dense
	// region (1D or MD), no probe, no history.
	dbK := hidden.MustDB(db.Schema(), tuples, hidden.Options{K: 7})
	eK := NewEngine(dbK, Options{N: 1200})
	if err := eK.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("k-mismatched import succeeded, want an error")
	}
	assertColdEngine(t, eK)

	// Matching upstream: everything restores.
	eOK := NewEngine(db, Options{N: 1200})
	if err := eOK.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if eOK.MDDenseRegions() != e1.MDDenseRegions() {
		t.Errorf("matching load restored %d MD regions, want %d", eOK.MDDenseRegions(), e1.MDDenseRegions())
	}
	if eOK.DenseIndex1D().Regions(0) != 1 {
		t.Errorf("matching load restored %d 1D regions, want 1", eOK.DenseIndex1D().Regions(0))
	}
}

// FuzzLoadSnapshot feeds untrusted bytes to the one knowledge decoder and
// loader. Import must never panic: it either returns an error or leaves a
// usable engine, one whose knowledge exports again and re-imports cleanly.
// The seed corpus is a real export plus truncated and mutated copies of it.
func FuzzLoadSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(73))
	schema := testSchema(2)
	tuples := genTuples(rng, schema, 400, false)
	db := hidden.MustDB(schema, tuples, hidden.Options{K: 10})

	e := NewEngine(db, Options{N: 400})
	sess := e.NewSession()
	for _, q := range persistProbes() {
		if _, err := sess.issue(q); err != nil {
			f.Fatal(err)
		}
	}
	var in1, inMD []types.Tuple
	box := query.Box{Dims: []types.Interval{types.ClosedInterval(20, 30), types.ClosedInterval(20, 30)}}
	for _, tu := range tuples {
		if tu.Ord[0] >= 3 && tu.Ord[0] <= 5 {
			in1 = append(in1, tu)
		}
		if box.Contains([]float64{tu.Ord[0], tu.Ord[1]}) {
			inMD = append(inMD, tu)
		}
	}
	e.know.InsertDense1(0, types.ClosedInterval(3, 5), in1)
	e.know.InsertDenseMD([]int{0, 1}, box, inMD)
	var buf bytes.Buffer
	if err := e.SaveSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	export := buf.Bytes()
	f.Add(export)
	f.Add(export[:len(export)/2])
	f.Add(export[:len(export)-1])
	for _, m := range [][2]string{
		{`"ord":[`, `"ord":[1,`},
		{`"attrs":[0,1]`, `"attrs":[1,0]`},
		{`"attr":0`, `"attr":9`},
		{`"ids":[`, `"ids":[-5,`},
		{`"deltas":[`, `"deltas":[null,`},
		{`"epoch":`, `"epoch":-`},
	} {
		f.Add(bytes.Replace(export, []byte(m[0]), []byte(m[1]), 1))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine(db, Options{N: 400})
		if err := e.LoadSnapshot(bytes.NewReader(data)); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := e.SaveSnapshot(&buf); err != nil {
			t.Fatalf("re-export after a successful import: %v", err)
		}
		if err := NewEngine(db, Options{N: 400}).LoadSnapshot(&buf); err != nil {
			t.Fatalf("re-import after a successful import: %v", err)
		}
	})
}
