package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// answerTuple is one ranked tuple of a rerank answer.
type answerTuple struct {
	ID    int                `json:"id"`
	Score float64            `json:"score"`
	Ord   map[string]float64 `json:"ord"`
	Cat   map[string]string  `json:"cat"`
}

type rerankResp struct {
	Tuples        []answerTuple `json:"tuples"`
	QueriesIssued int64         `json:"queriesIssued"`
}

type batchResp struct {
	Items []struct {
		Status   int         `json:"status"`
		Response *rerankResp `json:"response"`
	} `json:"items"`
	QueriesIssued int64 `json:"queriesIssued"`
}

type streamEvent struct {
	Tuple         *answerTuple    `json:"tuple"`
	Done          bool            `json:"done"`
	QueriesIssued int64           `json:"queriesIssued"`
	Error         json.RawMessage `json:"error"`
}

type revalResp struct {
	Bumped  bool  `json:"bumped"`
	Queries int64 `json:"queries"`
}

// outcome is a decoded operation.
type outcome struct {
	shed    bool
	err     error
	queries int64         // the daemon's queriesIssued (revalidate: queries)
	answers []*rerankResp // one per request, in request order
	reval   revalResp
}

func decode(o *op, r *result) outcome {
	var out outcome
	if r.err != nil {
		out.err = r.err
		return out
	}
	if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
		out.shed = true
		return out
	}
	if r.status != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
		return out
	}
	switch o.kind {
	case kind1D, kindMD:
		var a rerankResp
		out.err = json.Unmarshal(r.body, &a)
		out.queries = a.QueriesIssued
		out.answers = []*rerankResp{&a}
	case kindBatch:
		var b batchResp
		if out.err = json.Unmarshal(r.body, &b); out.err != nil {
			return out
		}
		if len(b.Items) != len(o.reqs) {
			out.err = fmt.Errorf("batch of %d answered with %d items", len(o.reqs), len(b.Items))
			return out
		}
		out.queries = b.QueriesIssued
		for _, it := range b.Items {
			if it.Status != http.StatusOK || it.Response == nil {
				out.err = fmt.Errorf("batch item status %d", it.Status)
				return out
			}
			out.answers = append(out.answers, it.Response)
		}
	case kindStream:
		a := &rerankResp{}
		done := false
		for _, line := range bytes.Split(bytes.TrimSpace(r.body), []byte{'\n'}) {
			var ev streamEvent
			if out.err = json.Unmarshal(line, &ev); out.err != nil {
				return out
			}
			if ev.Tuple != nil {
				a.Tuples = append(a.Tuples, *ev.Tuple)
			}
			if ev.Done {
				if len(ev.Error) > 0 {
					out.err = fmt.Errorf("stream failed: %s", ev.Error)
					return out
				}
				done = true
				a.QueriesIssued = ev.QueriesIssued
			}
		}
		if !done {
			out.err = fmt.Errorf("stream ended without a final event")
			return out
		}
		out.queries = a.QueriesIssued
		out.answers = []*rerankResp{a}
	case kindMutate:
		out.err = json.Unmarshal(r.body, &out.reval)
		out.queries = out.reval.Queries
	}
	return out
}

// score ranks a row as the daemon's rankers do; lower is better.
func (q request) score(r *row) float64 {
	if q.other < 0 {
		if q.desc {
			return -r.ord[q.attr]
		}
		return r.ord[q.attr]
	}
	return 1*r.ord[q.attr] + 1*r.ord[q.other]
}

// oracle computes brute-force answers over every corpus version, memoized
// per (version, window, ranking).
type oracle struct {
	fx       *fixture
	universe []window
	memo     map[oracleKey][]scored
}

type oracleKey struct {
	version, window, attr, other int
	desc                         bool
}

type scored struct {
	id    int
	score float64
}

func newOracle(fx *fixture, u []window) *oracle {
	return &oracle{fx: fx, universe: u, memo: map[oracleKey][]scored{}}
}

// top returns the matches of q's window sorted by (score, ID), cut after
// the maxH-th match and the rest of its tie group.
func (or *oracle) top(q request, version int) []scored {
	key := oracleKey{version, q.window, q.attr, q.other, q.desc}
	if s, ok := or.memo[key]; ok {
		return s
	}
	c := or.fx.at(version)
	w := or.universe[q.window]
	var all []scored
	for i := range c.byRank {
		r := &c.byRank[i]
		if v := r.ord[w.attr]; v >= w.lo && v <= w.hi {
			all = append(all, scored{r.id, q.score(r)})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score < all[b].score
		}
		return all[a].id < all[b].id
	})
	n := min(maxH, len(all))
	for n > 0 && n < len(all) && all[n].score == all[n-1].score {
		n++
	}
	all = all[:n:n]
	or.memo[key] = all
	return all
}

// check compares an answer with the oracle over corpus version v: the
// score sequence must match, each tuple must belong to the oracle's tie
// group of its score (so tie groups match as ID sets, and the group cut
// by h is a subset of the full one), and each tuple's attribute values
// must be the corpus's. It returns "" when the answer is right.
func (or *oracle) check(q request, a *rerankResp, version int) string {
	want := or.top(q, version)
	c := or.fx.at(version)
	wantN := min(q.h, len(want))
	if len(a.Tuples) != wantN {
		return fmt.Sprintf("%d tuples, want %d", len(a.Tuples), wantN)
	}
	seen := map[int]bool{}
	for i, t := range a.Tuples {
		if t.Score != want[i].score {
			return fmt.Sprintf("rank %d: score %v, want %v (id %d, want id %d)", i, t.Score, want[i].score, t.ID, want[i].id)
		}
		if seen[t.ID] {
			return fmt.Sprintf("rank %d: id %d repeated", i, t.ID)
		}
		seen[t.ID] = true
		inGroup := false
		for _, s := range want {
			if s.score == t.Score && s.id == t.ID {
				inGroup = true
			}
		}
		if !inGroup {
			return fmt.Sprintf("rank %d: id %d is not in the tie group of score %v", i, t.ID, t.Score)
		}
		r := c.row(t.ID)
		for at, name := range ordNames {
			if got, ok := t.Ord[name]; !ok || got != r.ord[at] {
				return fmt.Sprintf("rank %d: id %d %s=%v, corpus has %v", i, t.ID, name, got, r.ord[at])
			}
		}
		for ct, name := range catNames {
			if got := t.Cat[name]; got != catVals[ct][r.cat[ct]] {
				return fmt.Sprintf("rank %d: id %d %s=%q, corpus has %q", i, t.ID, name, got, catVals[ct][r.cat[ct]])
			}
		}
	}
	return ""
}

// knownVersions returns, for an instant, the oldest corpus version the
// daemon may still answer from: the one its last completed revalidation
// saw. Until a revalidation reports drift the daemon has no way to know of
// it, so an answer sent before then may match the older corpus.
func knownVersions(ops []op, res []result) func(time.Time) int {
	type confirm struct {
		at      time.Time
		version int
	}
	var cs []confirm
	for i := range ops {
		if ops[i].kind == kindMutate {
			cs = append(cs, confirm{res[i].done, res[i].vDone})
		}
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].at.Before(cs[b].at) })
	return func(t time.Time) int {
		j := sort.Search(len(cs), func(j int) bool { return cs[j].at.After(t) }) - 1
		if j < 0 {
			return 0
		}
		return cs[j].version
	}
}

// checkAny accepts an answer that matches any corpus version in
// [from, to]: from is the version the daemon knew of when the operation
// was sent, to the version current when its answer arrived.
func (or *oracle) checkAny(q request, a *rerankResp, from, to int) string {
	first := ""
	for v := from; v <= to; v++ {
		d := or.check(q, a, v)
		if d == "" {
			return ""
		}
		if first == "" {
			first = d
		}
	}
	return first
}
