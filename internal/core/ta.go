// TA over 1D-RERANK (§4.1): the strawman that drives Fagin's threshold
// algorithm with one 1D-RERANK Get-Next cursor per ranked attribute. It is
// exact for every monotone ranking function but wastes queries because it
// never issues multi-predicate boxes — the experiments reproduce exactly
// that gap against MD-RERANK (Figures 13–17).

package core

import (
	"math"

	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// TACursor implements Cursor using the threshold algorithm over sorted
// access provided by per-attribute 1D-RERANK cursors. Random access is not
// needed: the search interface returns whole tuples (§4.1).
type TACursor struct {
	s    *Session
	q    query.Query
	axis *ranking.Axis

	cursors  []*OneDCursor
	access   []Cursor  // external sorted access (§5 known rankings); overrides cursors
	frontier []float64 // last axis value seen per ranked attribute
	liveAttr []bool
	anyDone  bool // one cursor exhausted ⇒ R(q) fully enumerated
	rr       int  // round-robin position

	seen    map[int]types.Tuple
	emitted map[int]bool
}

// NewTACursor builds a TA cursor for ranker r over user query q, in a fresh
// single-cursor session.
func (e *Engine) NewTACursor(q query.Query, r ranking.Ranker) *TACursor {
	return e.NewSession().NewTACursor(q, r)
}

// NewTACursor builds a TA cursor for ranker r over user query q. Its
// per-attribute sorted-access sub-cursors share the session's cost ledger.
func (s *Session) NewTACursor(q query.Query, r ranking.Ranker) *TACursor {
	ax := ranking.NewAxis(r, s.e.db.Schema())
	t := &TACursor{
		s: s, q: q, axis: ax,
		seen:    make(map[int]types.Tuple),
		emitted: make(map[int]bool),
	}
	for j, attr := range ax.Attrs() {
		t.cursors = append(t.cursors, s.NewOneDCursor(q, attr, r.Dir(j), Rerank))
		t.frontier = append(t.frontier, math.Inf(-1))
		t.liveAttr = append(t.liveAttr, true)
	}
	return t
}

// threshold returns τ = S(frontier): no unseen tuple can score below it,
// because an unseen tuple is at or beyond the frontier on every sorted list.
func (t *TACursor) threshold() float64 {
	for _, f := range t.frontier {
		if math.IsInf(f, -1) {
			return math.Inf(-1)
		}
	}
	return t.axis.ScoreAxis(t.frontier)
}

// bestSeen returns the lowest-score unemitted tuple observed so far.
func (t *TACursor) bestSeen() (types.Tuple, float64, bool) {
	var best types.Tuple
	bestScore := 0.0
	have := false
	for id, tt := range t.seen {
		if t.emitted[id] {
			continue
		}
		s := t.axis.ScoreTuple(tt)
		if !have || s < bestScore || (s == bestScore && tt.ID < best.ID) {
			best, bestScore, have = tt, s, true
		}
	}
	return best, bestScore, have
}

// Next implements Cursor.
func (t *TACursor) Next() (types.Tuple, bool, error) {
	for {
		best, bestScore, have := t.bestSeen()
		if t.anyDone {
			// Every matching tuple has been enumerated through the
			// exhausted attribute's cursor.
			if !have {
				return types.Tuple{}, false, nil
			}
			t.emitted[best.ID] = true
			return best, true, nil
		}
		if have && bestScore <= t.threshold() {
			t.emitted[best.ID] = true
			return best, true, nil
		}
		// Advance sorted access round-robin.
		n := len(t.cursors)
		if len(t.access) > 0 {
			n = len(t.access)
		}
		j := t.rr % n
		t.rr++
		if !t.liveAttr[j] {
			continue
		}
		var (
			tt  types.Tuple
			ok  bool
			err error
		)
		if len(t.access) > 0 {
			tt, ok, err = t.access[j].Next()
		} else {
			tt, ok, err = t.cursors[j].Next()
		}
		if err != nil {
			return types.Tuple{}, false, err
		}
		if !ok {
			t.liveAttr[j] = false
			t.anyDone = true
			continue
		}
		t.frontier[j] = float64(t.axis.R.Dir(j)) * tt.Ord[t.axis.Attrs()[j]]
		if _, dup := t.seen[tt.ID]; !dup {
			t.seen[tt.ID] = tt
		}
	}
}
