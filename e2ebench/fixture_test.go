package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hidden"
	"repro/internal/service"
)

// The fixture must answer exactly as the repository's own hidden database
// behind its hiddendb handler would, so that replacing one with the other
// changes what is measured, not what the daemon sees.

func reference(t *testing.T) (http.Handler, *hidden.DB) {
	t.Helper()
	ds := dataset.BlueNile(corpusSeed, corpusN)
	db, err := hidden.NewDB(ds.Schema, ds.Tuples, hidden.Options{K: systemK, Ranker: ds.DefaultRanker})
	if err != nil {
		t.Fatal(err)
	}
	return service.HiddenDBHandler(db), db
}

func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func TestCorpusMatchesDataset(t *testing.T) {
	ds := dataset.BlueNile(corpusSeed, corpusN)
	rows := genCorpus(corpusSeed, corpusN)
	for i, tp := range ds.Tuples {
		r := rows[i]
		if r.id != tp.ID {
			t.Fatalf("row %d: id %d, dataset %d", i, r.id, tp.ID)
		}
		for a := range ordNames {
			if ds.Schema.Index(ordNames[a]) != a || r.ord[a] != tp.Ord[a] {
				t.Fatalf("row %d: %s = %v, dataset %v", i, ordNames[a], r.ord[a], tp.Ord[a])
			}
		}
		for c := range catNames {
			if got := catVals[c][r.cat[c]]; got != tp.Cat[catNames[c]] {
				t.Fatalf("row %d: %s = %q, dataset %q", i, catNames[c], got, tp.Cat[catNames[c]])
			}
		}
	}
}

func TestFixtureSchemaMatchesHiddenDB(t *testing.T) {
	ref, _ := reference(t)
	fx := newFixture(genCorpus(corpusSeed, corpusN), 0)
	_, want := call(ref, "GET", "/v1/schema", nil)
	_, got := call(fx.handler(), "GET", "/v1/schema", nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("schema differs:\n got %s\nwant %s", got, want)
	}
}

// probes draws searches that cover open and closed endpoints (bounds are
// often exact corpus values), missing bounds, repeated attributes,
// categorical filters including unknown names and values, and windows
// holding exactly k and k+1 rows, where only the overflow witness tells
// the answers apart.
func probes(rng *rand.Rand, rows []row, n int) []wireSearch {
	bound := func(a int) *float64 {
		if rng.Intn(4) == 0 {
			return nil
		}
		v := rows[rng.Intn(len(rows))].ord[a]
		if rng.Intn(3) == 0 {
			v = ordMin[a] + rng.Float64()*(ordMax[a]-ordMin[a])
		}
		return &v
	}
	var out []wireSearch
	for len(out) < n {
		var ws wireSearch
		for j := rng.Intn(4); j > 0; j-- {
			a := rng.Intn(nOrd)
			lo, hi := bound(a), bound(a)
			if lo != nil && hi != nil && *lo > *hi {
				lo, hi = hi, lo
			}
			ws.Ranges = append(ws.Ranges, wireRange{Attr: ordNames[a], Min: lo, Max: hi,
				MinOpen: rng.Intn(2) == 0, MaxOpen: rng.Intn(2) == 0})
		}
		for j := rng.Intn(3); j > 0; j-- {
			if ws.Filters == nil {
				ws.Filters = map[string]string{}
			}
			c := rng.Intn(nCat)
			switch rng.Intn(10) {
			case 0:
				ws.Filters["Polish"] = ""
			case 1:
				ws.Filters[catNames[c]] = "Unknown"
			default:
				ws.Filters[catNames[c]] = catVals[c][rng.Intn(len(catVals[c]))]
			}
		}
		out = append(out, ws)
	}
	prices := make([]float64, len(rows))
	for i := range rows {
		prices[i] = rows[i].ord[attrPrice]
	}
	sort.Float64s(prices)
	for j := 0; j < 50; j++ {
		i := rng.Intn(len(prices) - systemK - 2)
		for _, span := range []int{systemK - 1, systemK, systemK + 1} {
			lo, hi := prices[i], prices[i+span]
			out = append(out,
				wireSearch{Ranges: []wireRange{{Attr: "Price", Min: &lo, Max: &hi}}},
				wireSearch{Ranges: []wireRange{{Attr: "Price", Min: &lo, Max: &hi, MinOpen: true}}},
				wireSearch{Ranges: []wireRange{{Attr: "Price", Min: &lo, Max: &hi, MaxOpen: true}}})
		}
	}
	return out
}

func compareProbes(t *testing.T, ref, fx http.Handler, ps []wireSearch) (overflows int) {
	t.Helper()
	for i, p := range ps {
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		wantCode, want := call(ref, "POST", "/v1/search", body)
		gotCode, got := call(fx, "POST", "/v1/search", body)
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("probe %d %s:\n got %d %s\nwant %d %s", i, body, gotCode, got, wantCode, want)
		}
		if bytes.Contains(got, []byte(`"overflow":true`)) {
			overflows++
		}
	}
	return overflows
}

func TestFixtureAnswersMatchHiddenDB(t *testing.T) {
	ref, db := reference(t)
	rows := genCorpus(corpusSeed, corpusN)
	fx := newFixture(rows, 0)
	rng := rand.New(rand.NewSource(1))
	ps := probes(rng, rows, 3000)
	if n := compareProbes(t, ref, fx.handler(), ps); n == 0 || n == len(ps) {
		t.Fatalf("%d of %d probes overflowed; the probe set must have both kinds", n, len(ps))
	}

	// Unknown or categorical range attributes are rejected by both.
	for _, bad := range []string{`{"ranges":[{"attr":"Clarity","min":1}]}`, `{"ranges":[{"attr":"Polish"}]}`, `{`} {
		wc, _ := call(ref, "POST", "/v1/search", []byte(bad))
		gc, _ := call(fx.handler(), "POST", "/v1/search", []byte(bad))
		if wc != http.StatusBadRequest || gc != wc {
			t.Fatalf("%s: fixture status %d, reference %d", bad, gc, wc)
		}
	}

	// Mutations, including ones that move a row's system rank, keep both
	// in the same order.
	for j := 0; j < 20; j++ {
		c := fx.current()
		id := c.byRank[rng.Intn(200)].id
		a := rng.Intn(nOrd)
		v := c.row(id).ord[a] * (0.5 + rng.Float64())
		if !db.SetOrd(id, a, v) {
			t.Fatalf("reference has no row %d", id)
		}
		if err := fx.mutate(id, a, v); err != nil {
			t.Fatal(err)
		}
	}
	if fx.version() != 20 {
		t.Fatalf("version %d after 20 mutations", fx.version())
	}
	compareProbes(t, ref, fx.handler(), probes(rng, rows, 1000))
	if fx.at(0).row(0).ord != rows[0].ord {
		t.Fatal("mutation changed an earlier corpus version")
	}
}
