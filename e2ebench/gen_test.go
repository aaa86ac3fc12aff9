package main

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := timedSchedule(w, 7, 3), timedSchedule(w, 7, 3)
		c := timedSchedule(w, 8, 3)
		if len(a.ops) != len(b.ops) {
			t.Fatalf("%s: %d vs %d operations for one seed", w.name, len(a.ops), len(b.ops))
		}
		same := true
		for i := range a.ops {
			if a.ops[i].kind != b.ops[i].kind || !bytes.Equal(a.ops[i].body, b.ops[i].body) || a.due[i] != b.due[i] {
				t.Fatalf("%s: operation %d differs between two draws of one seed", w.name, i)
			}
			if i < len(c.ops) && !bytes.Equal(a.ops[i].body, c.ops[i].body) {
				same = false
			}
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 drew the same operations", w.name)
		}
		if n := len(warmTrace(w)); n != w.warmOps {
			t.Fatalf("%s: warm-up trace of %d operations, want %d", w.name, n, w.warmOps)
		}
	}
}

// The operations a run sends, and which operation each due time carries,
// do not depend on how many connections send them.
func TestOpenLoopIndependentOfConnections(t *testing.T) {
	w, err := findWorkload("churn-persist")
	if err != nil {
		t.Fatal(err)
	}
	s := timedSchedule(w, 3, 2)
	due := make([]time.Duration, len(s.ops)) // all due at once: maximal interleaving
	for _, conns := range []int{1, 2, 4} {
		var mu sync.Mutex
		sent := make([][]byte, len(s.ops))
		count := make([]int, len(s.ops))
		res := runOpenLoop(s.ops, due, conns, func(o *op, _ *result) {
			mu.Lock()
			defer mu.Unlock()
			sent[o.idx] = o.body
			count[o.idx]++
		})
		workers := map[int]bool{}
		for i := range s.ops {
			if count[i] != 1 || !bytes.Equal(sent[i], s.ops[i].body) {
				t.Fatalf("conns=%d: operation %d sent %d times", conns, i, count[i])
			}
			workers[res[i].worker] = true
			if res[i].done.Before(res[i].send) || res[i].send.Before(res[i].due) {
				t.Fatalf("conns=%d: operation %d timed out of order", conns, i)
			}
		}
		if len(workers) > conns {
			t.Fatalf("conns=%d: %d connections used", conns, len(workers))
		}
	}
}

// The workloads have the shapes NOTES.md claims for them.
func TestWorkloadShapes(t *testing.T) {
	for _, w := range workloads {
		s := timedSchedule(w, 5, 20)
		hits := map[int]int{}
		answers, md, mutations := 0, 0, 0
		for _, o := range s.ops {
			if o.kind == kindMutate {
				mutations++
				continue
			}
			for _, q := range o.reqs {
				answers++
				hits[q.window]++
				if q.other >= 0 {
					md++
				}
				if q.h < 1 || q.h > maxH {
					t.Fatalf("%s: h=%d", w.name, q.h)
				}
			}
		}
		top := 0
		for _, n := range hits {
			top = max(top, n)
		}
		top1, mdShare := float64(top)/float64(answers), float64(md)/float64(answers)
		if mutations != w.rounds {
			t.Fatalf("%s: %d mutation rounds, want %d", w.name, mutations, w.rounds)
		}
		switch w.name {
		case "hot-zipf", "churn-persist":
			if len(hits) > 8 || top1 < 0.3 || mdShare < 0.4 || mdShare > 0.6 {
				t.Fatalf("%s: %d windows, top-1 share %.2f, MD share %.2f", w.name, len(hits), top1, mdShare)
			}
		case "cold-rtt":
			if len(hits) < 200 || top1 > 0.02 || mdShare < 0.65 || mdShare > 0.8 {
				t.Fatalf("%s: %d windows, top-1 share %.3f, MD share %.2f", w.name, len(hits), top1, mdShare)
			}
		}
	}
}
