// Package crawl implements a complete crawler for hidden databases in the
// style of Sheng et al. [15], the baseline §1 of the paper argues against:
// retrieve *every* tuple matching a query through the top-k interface by
// recursively splitting overflowing queries into disjoint sub-queries.
//
// Besides serving as the experimental baseline, the crawler is the workhorse
// behind the on-the-fly dense indexes (Algorithms 4 and 6): dense regions
// are small, so crawling them costs O(s/k) queries and the result is stored
// for all future user queries.
//
// # Probe routing and cost accounting
//
// By default every probe goes straight to the Database. Callers that sit
// behind a probe-coalescing layer (the engine's sessions) instead supply
// Options.Probe, which answers each sub-query and reports whether it
// actually reached the upstream: probes served by an in-flight duplicate or
// a cached complete answer are free. The crawler therefore keeps two
// counters — Queries (probes attempted, the budget measure, stable
// regardless of cache state) and Issued (probes that reached the upstream,
// the paper's cost measure). Both are atomic: crawlers are reachable from
// concurrent sessions, and progress may be read while a crawl runs.
package crawl

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/hidden"
	"repro/internal/query"
	"repro/internal/types"
)

// ErrBudget is returned when the crawl exceeds its query budget.
var ErrBudget = errors.New("crawl: query budget exhausted")

// ErrUnsplittable is returned when an overflowing query cannot be split any
// further: more than k tuples share identical values on every splittable
// attribute, which no conjunctive-query interface can separate.
var ErrUnsplittable = errors.New("crawl: overflowing region is unsplittable (more than k identical tuples)")

// Probe answers one sub-query on behalf of the crawler. issued reports
// whether the probe actually reached the upstream: answers replayed from a
// coalescing layer (an identical in-flight call or a cached complete
// answer) are free and must not be charged as upstream cost.
type Probe func(q query.Query) (res hidden.Result, issued bool, err error)

// Options configure a crawl.
type Options struct {
	// SplitAttrs are the ordinal attribute indexes the crawler may split
	// on. Defaults to every ordinal attribute of the database schema.
	SplitAttrs []int
	// MaxQueries bounds the number of probe attempts (0 = unlimited). The
	// budget is charged per attempt, before any coalescing, so it is
	// stable regardless of cache state.
	MaxQueries int64
	// Probe, when non-nil, replaces direct Database.TopK calls — the hook
	// through which the engine routes crawl probes into its coalescing
	// layer so concurrent crawls of overlapping regions dedup at probe
	// granularity. When nil, probes go straight to the database and every
	// attempt counts as issued.
	Probe Probe
}

// Crawler retrieves complete query answers through a top-k interface.
type Crawler struct {
	db   hidden.Database
	opts Options
	// Observe, when non-nil, receives every tuple the crawler sees
	// (including duplicates); used to feed history stores.
	Observe func(types.Tuple)

	queries atomic.Int64 // probe attempts (budget measure)
	issued  atomic.Int64 // probes that reached the upstream (cost measure)
}

// New builds a crawler over db.
func New(db hidden.Database, opts Options) *Crawler {
	if len(opts.SplitAttrs) == 0 {
		opts.SplitAttrs = append([]int(nil), db.Schema().OrdinalIndexes()...)
	}
	return &Crawler{db: db, opts: opts}
}

// Queries returns the number of probes attempted so far — the number that
// would have reached the database without a coalescing layer. Safe to read
// while a crawl is running.
func (c *Crawler) Queries() int64 { return c.queries.Load() }

// Issued returns the number of probes that actually reached the upstream:
// Queries minus the probes answered for free by Options.Probe's coalescing.
// Without Options.Probe, Issued equals Queries. Safe to read while a crawl
// is running.
func (c *Crawler) Issued() int64 { return c.issued.Load() }

// All retrieves every tuple matching q. The result is deduplicated by ID and
// sorted by ID for determinism.
func (c *Crawler) All(q query.Query) ([]types.Tuple, error) {
	seen := make(map[int]types.Tuple)
	if err := c.crawl(q, seen, 0); err != nil {
		return nil, err
	}
	out := make([]types.Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (c *Crawler) crawl(root query.Query, seen map[int]types.Tuple, _ int) error {
	work := []query.Query{root}
	for len(work) > 0 {
		q := work[len(work)-1]
		work = work[:len(work)-1]
		if q.Empty() {
			continue
		}
		if c.opts.MaxQueries > 0 && c.queries.Load() >= c.opts.MaxQueries {
			return ErrBudget
		}
		c.queries.Add(1)
		var res hidden.Result
		var err error
		if c.opts.Probe != nil {
			var issued bool
			res, issued, err = c.opts.Probe(q)
			if issued {
				c.issued.Add(1)
			}
		} else {
			res, err = c.db.TopK(q)
			c.issued.Add(1)
		}
		if err != nil {
			return err
		}
		for _, t := range res.Tuples {
			if c.Observe != nil {
				c.Observe(t)
			}
			seen[t.ID] = t
		}
		if !res.Overflow {
			continue
		}
		parts, err := c.split(q, res.Tuples)
		if err != nil {
			return fmt.Errorf("%w (query %v)", err, q)
		}
		work = append(work, parts...)
	}
	return nil
}

// split partitions q into disjoint sub-queries. It prefers an ordinal
// attribute on which the returned tuples take at least two distinct values
// (binary range split at the median); failing that it enumerates the values
// of a free categorical attribute (conjunctive point predicates, §2.1).
func (c *Crawler) split(q query.Query, returned []types.Tuple) ([]query.Query, error) {
	bestAttr, bestDistinct := -1, 1
	var bestVals []float64
	for _, attr := range c.opts.SplitAttrs {
		vals := make([]float64, 0, len(returned))
		for _, t := range returned {
			vals = append(vals, t.Ord[attr])
		}
		sort.Float64s(vals)
		distinct := 1
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[i-1] {
				distinct++
			}
		}
		if distinct > bestDistinct {
			bestAttr, bestDistinct, bestVals = attr, distinct, vals
		}
	}
	if bestAttr >= 0 {
		distinctVals := bestVals[:0:0]
		for i, v := range bestVals {
			if i == 0 || v != bestVals[i-1] {
				distinctVals = append(distinctVals, v)
			}
		}
		v := distinctVals[len(distinctVals)/2]
		if v == distinctVals[0] {
			v = distinctVals[1]
		}
		cur, has := q.Range(bestAttr)
		if !has {
			cur = types.FullInterval()
		}
		return []query.Query{
			q.WithRange(bestAttr, types.Interval{Lo: cur.Lo, LoOpen: cur.LoOpen, Hi: v, HiOpen: true}),
			q.WithRange(bestAttr, types.Interval{Lo: v, LoOpen: false, Hi: cur.Hi, HiOpen: cur.HiOpen}),
		}, nil
	}
	// No diversity among the returned page (always the case when k = 1):
	// point-split at the returned value of some attribute whose interval
	// is not yet a single point. All three parts strictly shrink.
	for _, attr := range c.opts.SplitAttrs {
		cur, has := q.Range(attr)
		if !has {
			cur = types.FullInterval()
		}
		if cur.Lo == cur.Hi {
			continue // already a point predicate
		}
		v := returned[0].Ord[attr]
		return []query.Query{
			q.WithRange(attr, types.Interval{Lo: cur.Lo, LoOpen: cur.LoOpen, Hi: v, HiOpen: true}),
			q.WithRange(attr, types.ClosedInterval(v, v)),
			q.WithRange(attr, types.Interval{Lo: v, LoOpen: true, Hi: cur.Hi, HiOpen: cur.HiOpen}),
		}, nil
	}
	return c.splitCategorical(q, returned)
}

// splitCategorical partitions q by enumerating the declared values of a
// categorical attribute on which the returned tuples differ.
func (c *Crawler) splitCategorical(q query.Query, returned []types.Tuple) ([]query.Query, error) {
	schema := c.db.Schema()
	for i := 0; i < schema.Len(); i++ {
		attr := schema.Attr(i)
		if attr.Kind != types.Categorical || len(attr.Values) < 2 {
			continue
		}
		if _, fixed := q.Cat(attr.Name); fixed {
			continue
		}
		parts := make([]query.Query, 0, len(attr.Values))
		for _, v := range attr.Values {
			parts = append(parts, q.WithCat(attr.Name, v))
		}
		return parts, nil
	}
	return nil, ErrUnsplittable
}
