package service

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hidden"
	"repro/internal/types"
)

// clusteredDB builds an upstream with a tight tuple cluster inside
// [50, 50.3]² on the first two ordinal attributes — a dense region under the
// default thresholds at n=1200, k=10.
func clusteredDB(t *testing.T) *hidden.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	schema := types.MustSchema([]types.Attribute{
		{Name: "A0", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
		{Name: "A1", Kind: types.Ordinal, Domain: types.Domain{Min: 0, Max: 100}},
	})
	n := 1200
	tuples := make([]types.Tuple, n)
	for i := range tuples {
		ord := make([]float64, 2)
		if i < 60 {
			ord[0] = 50 + float64(i)*0.005
			ord[1] = 50 + float64((i*37)%60)*0.005
		} else {
			ord[0] = rng.Float64() * 100
			ord[1] = rng.Float64() * 100
		}
		tuples[i] = types.Tuple{ID: i, Ord: ord}
	}
	return hidden.MustDB(schema, tuples, hidden.Options{K: 10})
}

// TestServiceMDWarmRestart is the service-level drain-and-restart test: a
// server that drained into its data dir (ClosePersistence, the final
// checkpoint rerankd takes on SIGTERM) restarts from that dir and answers
// an MD-RERANK request over a previously-crawled dense region with zero
// upstream queries and the same answer.
func TestServiceMDWarmRestart(t *testing.T) {
	db := clusteredDB(t)
	lo, hi := 50.0, 50.3
	req := RerankRequest{
		Ranges: []RangeSpec{
			{Attr: "A0", Min: &lo, Max: &hi},
			{Attr: "A1", Min: &lo, Max: &hi},
		},
		Ranking: RankingSpec{Kind: "linear", Attrs: []string{"A0", "A1"}, Weights: []float64{1, 1}},
		H:       5,
	}

	dir := t.TempDir()
	srv1 := NewServerWith(db, core.Options{N: 1200})
	if err := srv1.OpenDataDir(dir, PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	resp1, _, err := srv1.Rerank(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp1.QueriesIssued == 0 {
		t.Fatal("precondition: cold request cost 0 upstream queries")
	}
	st := srv1.Stats()
	if st.MDDenseRegions == 0 {
		t.Fatal("precondition: cold request crawled no MD dense region")
	}
	if err := srv1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same upstream, replaying the dir.
	db.ResetCounter()
	srv2 := NewServerWith(db, core.Options{N: 1200})
	if err := srv2.OpenDataDir(dir, PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	defer srv2.ClosePersistence()
	if got := srv2.Stats().MDDenseRegions; got != st.MDDenseRegions {
		t.Fatalf("restored %d MD dense regions, want %d", got, st.MDDenseRegions)
	}
	resp2, _, err := srv2.Rerank(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.QueriesIssued != 0 {
		t.Errorf("warm request charged %d upstream queries, want 0", resp2.QueriesIssued)
	}
	if n := db.QueryCount(); n != 0 {
		t.Errorf("warm request reached the upstream %d times, want 0", n)
	}
	if len(resp2.Tuples) != len(resp1.Tuples) {
		t.Fatalf("warm request returned %d tuples, want %d", len(resp2.Tuples), len(resp1.Tuples))
	}
	for i := range resp2.Tuples {
		if resp2.Tuples[i].ID != resp1.Tuples[i].ID {
			t.Fatalf("rank %d: warm ID %d, cold ID %d", i, resp2.Tuples[i].ID, resp1.Tuples[i].ID)
		}
	}
}
