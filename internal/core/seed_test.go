package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/ranking"
	"repro/internal/types"
)

// fullScanSeeds is the reference seeding the seed index replaces: one full
// pass over the matching history per round, each region keeping the
// smallest (score, ID) non-emitted, non-excluded row inside its box.
func fullScanSeeds(c *MDCursor, regs []*mdRegion) []candidate {
	cands := make([]candidate, len(regs))
	ax := ranking.NewAxis(c.axis().R, c.s.e.db.Schema())
	z := make([]float64, ax.M())
	c.s.e.know.hist.ScanFrom(c.q, 0, func(v colstore.View, row int) {
		id := v.ID(row)
		if c.emitted[id] || (c.excludeOK && id == c.excludeID) {
			return
		}
		ax.ToAxisViewInto(v, row, z)
		s := ax.ScoreView(v, row)
		for i, reg := range regs {
			cd := &cands[i]
			if reg.box.Contains(z) && (!cd.have || s < cd.score || (s == cd.score && id < cd.t.ID)) {
				*cd = candidate{t: v.Tuple(row), score: s, have: true}
			}
		}
	})
	return cands
}

// gridTuples draws n tuples with fresh IDs from firstID on, every ordinal
// value on a 6-point grid so scores tie constantly.
func gridTuples(rng *rand.Rand, m, firstID, n int) []types.Tuple {
	cats := []string{"x", "y", "z"}
	out := make([]types.Tuple, n)
	for i := range out {
		ord := make([]float64, m+1)
		for j := 0; j < m; j++ {
			ord[j] = float64(rng.Intn(6)) * 20
		}
		out[i] = types.Tuple{ID: firstID + i, Ord: ord, Cat: map[string]string{"cat": cats[rng.Intn(3)]}}
	}
	return out
}

// randomRegions partitions the cursor's query box into 2·max+4 disjoint
// regions by random cuts, half of them on grid values (so rows sit on region
// boundaries) and half between them (so some regions hold no rows at all),
// and returns a random nonempty subset of at most max of them. Now and then
// the whole box joins the round as an overlapping region.
func randomRegions(rng *rand.Rand, c *MDCursor, max int) []*mdRegion {
	root := c.axis().QueryToBox(c.q)
	boxes := []query.Box{root}
	for len(boxes) < 2*max+4 {
		i := rng.Intn(len(boxes))
		j := rng.Intn(len(root.Dims))
		cut := float64(rng.Intn(11)) * 10 // on the grid, or between grid values
		if c.axis().AxisInterval(j, types.ClosedInterval(0, 1)).Lo < 0 {
			cut = -cut // a descending attribute's axis flips its values
		}
		lo, hi := boxes[i].Clone(), boxes[i].Clone()
		lo.Dims[j] = lo.Dims[j].Intersect(types.Interval{Lo: root.Dims[j].Lo, Hi: cut, HiOpen: true})
		hi.Dims[j] = hi.Dims[j].Intersect(types.Interval{Lo: cut, Hi: root.Dims[j].Hi})
		boxes = append(boxes[:i], boxes[i+1:]...)
		for _, b := range []query.Box{lo, hi} {
			if !b.Empty() {
				boxes = append(boxes, b)
			}
		}
	}
	rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
	n := 1 + rng.Intn(max)
	if n > len(boxes) {
		n = len(boxes)
	}
	regs := make([]*mdRegion, 0, n)
	for _, b := range boxes[:n] {
		regs = append(regs, &mdRegion{box: b})
	}
	if n < max && rng.Intn(8) == 0 {
		regs = append(regs, &mdRegion{box: root.Clone()})
	}
	return regs
}

// TestSeedIndexMatchesFullScan is the seed index's equivalence property:
// over randomized histories with tied scores, rows appended between rounds
// on both sides of the sorted prefix's tail, emitted and excluded IDs, and
// multi-region rounds at W ∈ {1, 4, 8}, every region's seed equals the
// full-scan reference exactly.
func TestSeedIndexMatchesFullScan(t *testing.T) {
	rankers := []ranking.Ranker{
		ranking.MustLinear("sum", []int{0, 1}, []float64{1, 1}),
		ranking.MustLinear("mix", []int{0, 1, 2}, []float64{1, -0.5, 2}),
		ranking.NewRatio("ratio", 0, 1),
	}
	for _, w := range []int{1, 4, 8} {
		for ri, r := range rankers {
			t.Run(fmt.Sprintf("W%d/%s", w, r.Name()), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*w + ri)))
				const m = 3
				db, _ := newTestDB(t, rng, m, 50, 10, true, systemRankers(m)[0])
				e := NewEngine(db, Options{N: 50, SearchParallelism: w})
				// The range on A2 and the category keep some history rows
				// out of the cursor's query.
				q := query.New().WithRange(2, types.ClosedInterval(20, 100)).WithCat("cat", "x")
				if ri == 2 {
					q = query.New().WithRange(1, types.ClosedInterval(20, 100)).WithCat("cat", "y")
				}
				c := e.NewSession().NewMDCursor(q, r, Rerank)
				var ids []int
				nextID := 0
				beforeTail, afterTail, seeded, unseeded := 0, 0, 0, 0
				for round := 0; round < 80; round++ {
					if round == 0 || rng.Intn(3) == 0 {
						batch := gridTuples(rng, m, nextID, 1+rng.Intn(25))
						nextID += len(batch)
						if n := len(c.seeds.sorted); n > 0 {
							tail := c.seeds.sorted[n-1]
							for _, tt := range batch {
								if !q.Matches(tt) {
									continue
								}
								if seedLess(seedEntry{score: c.axis().ScoreTuple(tt), id: tt.ID}, tail) {
									beforeTail++
								} else {
									afterTail++
								}
							}
						}
						e.know.hist.Add(batch...)
						for _, tt := range batch {
							ids = append(ids, tt.ID)
						}
					}
					if rng.Intn(4) == 0 {
						c.emitted[ids[rng.Intn(len(ids))]] = true
					}
					c.excludeID, c.excludeOK = ids[rng.Intn(len(ids))], rng.Intn(2) == 0
					regs := randomRegions(rng, c, w)
					off := 0
					if len(regs) < w {
						off = rng.Intn(w - len(regs) + 1)
					}
					want := fullScanSeeds(c, regs)
					got := c.seedRound(regs, off)
					for i := range regs {
						g, wt := got[i], want[i]
						if g.have != wt.have || g.score != wt.score || !reflect.DeepEqual(g.t, wt.t) {
							t.Fatalf("round %d region %d %v: seed (have=%v id=%d score=%v), full scan (have=%v id=%d score=%v)",
								round, i, regs[i].box, g.have, g.t.ID, g.score, wt.have, wt.t.ID, wt.score)
						}
						if g.have {
							seeded++
						} else {
							unseeded++
						}
					}
				}
				if beforeTail == 0 || afterTail == 0 {
					t.Fatalf("appended rows landed %d before / %d after the sorted tail — both cases must be exercised", beforeTail, afterTail)
				}
				if seeded == 0 || unseeded == 0 {
					t.Fatalf("%d seeded and %d unseeded regions — both outcomes must be exercised", seeded, unseeded)
				}
				t.Logf("appended %d before / %d after the tail; %d seeded, %d unseeded regions", beforeTail, afterTail, seeded, unseeded)
			})
		}
	}
}
