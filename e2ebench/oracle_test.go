package main

import (
	"strings"
	"testing"
)

func answerOf(q request, rs ...*row) *rerankResp {
	a := &rerankResp{}
	for _, r := range rs {
		t := answerTuple{ID: r.id, Score: q.score(r), Ord: map[string]float64{}, Cat: map[string]string{}}
		for i, n := range ordNames {
			t.Ord[n] = r.ord[i]
		}
		for i, n := range catNames {
			t.Cat[n] = catVals[i][r.cat[i]]
		}
		a.Tuples = append(a.Tuples, t)
	}
	return a
}

func TestOracleTiesAndStaleValues(t *testing.T) {
	fx := newFixture(genCorpus(corpusSeed, corpusN), 0)
	u := buildWindows(8)
	const depth = 1
	if u[1].attr != depth {
		t.Fatalf("window 1 ranges over attribute %d", u[1].attr)
	}
	q := request{window: 1, attr: depth, other: -1, desc: true, h: 2}
	or := newOracle(fx, u)
	top := or.top(q, 0)
	first, second, third := fx.at(0).row(top[0].id), fx.at(0).row(top[1].id), fx.at(0).row(top[2].id)
	if diff := or.check(q, answerOf(q, first, second), 0); diff != "" {
		t.Fatalf("oracle rejects its own answer: %s", diff)
	}
	if diff := or.check(q, answerOf(q, second, first), 0); diff == "" {
		t.Fatal("oracle accepts a reversed answer")
	}

	// Tie the third row with the first: version 1's top-1 tie group holds
	// both, so either answers h=1, and the h=2 answer may order them
	// either way.
	if err := fx.mutate(third.id, depth, first.ord[depth]); err != nil {
		t.Fatal(err)
	}
	tied := fx.at(1).row(third.id)
	q1 := q
	q1.h = 1
	for _, r := range []*row{first, tied} {
		if diff := or.check(q1, answerOf(q1, r), 1); diff != "" {
			t.Fatalf("tie member %d rejected: %s", r.id, diff)
		}
	}
	if diff := or.check(q, answerOf(q, tied, first), 1); diff != "" {
		t.Fatalf("tie group in either order rejected: %s", diff)
	}
	if diff := or.check(q1, answerOf(q1, second), 1); diff == "" {
		t.Fatal("oracle accepts a row outside the tie group")
	}
	if diff := or.check(q, answerOf(q, first, first), 1); !strings.Contains(diff, "repeated") {
		t.Fatalf("repeated row: %q", diff)
	}

	// An answer carrying the row's pre-mutation values is wrong for
	// version 1 even though its score would be right: only Depth moved,
	// so rank by Carat to keep the score unchanged.
	qc := request{window: 0, attr: 0, other: -1, desc: true, h: 1}
	if err := fx.mutate(or.top(qc, 1)[0].id, depth, 0.5); err != nil {
		t.Fatal(err)
	}
	stale := answerOf(qc, fx.at(1).row(or.top(qc, 2)[0].id))
	if diff := or.check(qc, stale, 2); !strings.Contains(diff, "Depth") {
		t.Fatalf("stale Depth: %q", diff)
	}
	if diff := or.checkAny(qc, stale, 1, 2); diff != "" {
		t.Fatalf("answer in flight across the mutation rejected: %s", diff)
	}
}
