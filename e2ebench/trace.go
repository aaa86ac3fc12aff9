package main

import (
	"sort"
	"time"
)

// interval is one timed operation as a connection saw it.
type interval struct {
	start, end int64 // ns since the recorder's epoch
	op         int
}

// timelines splits the timed operations by connection. Each connection
// runs one operation at a time, so each timeline is sorted and disjoint.
func timelines(rec *recorder, res []result, conns int) [][]interval {
	tl := make([][]interval, conns)
	for i := range res {
		r := &res[i]
		tl[r.worker] = append(tl[r.worker], interval{rec.since(r.send), rec.since(r.done), i})
	}
	return tl
}

// containing returns the operation of timeline t running at instant s.
func containing(t []interval, s int64) (int, bool) {
	j := sort.Search(len(t), func(j int) bool { return t[j].start > s }) - 1
	if j >= 0 && t[j].end >= s {
		return t[j].op, true
	}
	return 0, false
}

// attribute returns every recorded span plus one route span per timed
// operation. A fixture search is attributed (parent and request ID set) to
// the operation running when it started if that operation was the only
// one in flight; otherwise it stays unattributed and counts in aggregates
// only.
func attribute(rec *recorder, ops []op, res []result, conns int) []span {
	spans := rec.all()
	base := int64(0)
	for _, s := range spans {
		base = max(base, s.ID)
	}
	routeID := func(i int) int64 { return base + int64(i) + 1 }
	for i := range res {
		name := "route." + ops[i].kind.String()
		if ops[i].kind == kindMutate {
			name = "revalidate"
		}
		spans = append(spans, span{ID: routeID(i), ReqID: int64(i) + 1, Name: name,
			Start: rec.since(res[i].send), End: rec.since(res[i].done)})
	}
	tl := timelines(rec, res, conns)
	for k := range spans {
		s := &spans[k]
		if s.Name != "fixture.search" {
			continue
		}
		n, which := 0, 0
		for _, t := range tl {
			if i, ok := containing(t, s.Start); ok {
				n, which = n+1, i
			}
		}
		if n == 1 {
			s.Parent, s.ReqID = routeID(which), int64(which)+1
		}
	}
	return spans
}

type layerStats struct {
	calls         int
	msPerCall     float64
	inflightMax   int
	attributed    float64 // share of searches attributed to one operation
	waitShare     float64 // searches' share of solo operations' time
	selfPerAnswer float64 // solo operations' time outside searches and transport, per answer
	soloShare     float64 // share of operations that overlapped no other
}

// layers derives the upstream and core metrics of the timed phase from
// the attributed spans. Self time and wait share use solo operations only:
// every search that ran during one of them belongs to it.
func layers(spans []span, ops []op, res []result, rec *recorder, conns int, t0, tEnd time.Time, healthzMs float64) layerStats {
	var ls layerStats
	from, to := rec.since(t0), rec.since(tEnd)
	byReq := map[int64][]span{}
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	var total int64
	attributed := 0
	for _, s := range spans {
		if s.Name != "fixture.search" || s.Start < from || s.Start > to {
			continue
		}
		ls.calls++
		total += s.End - s.Start
		edges = append(edges, edge{s.Start, 1}, edge{s.End, -1})
		if s.ReqID != 0 {
			attributed++
			byReq[s.ReqID] = append(byReq[s.ReqID], s)
		}
	}
	if ls.calls > 0 {
		ls.msPerCall = float64(total) / 1e6 / float64(ls.calls)
		ls.attributed = float64(attributed) / float64(ls.calls)
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].delta < edges[b].delta
	})
	cur := 0
	for _, e := range edges {
		cur += e.delta
		ls.inflightMax = max(ls.inflightMax, cur)
	}

	tl := timelines(rec, res, conns)
	var dur, covered, self float64
	var nOps, nSolo, answers int
	for w, t := range tl {
		for _, iv := range t {
			if ops[iv.op].kind == kindMutate {
				continue
			}
			nOps++
			solo := true
			for v, other := range tl {
				if v == w {
					continue
				}
				j := sort.Search(len(other), func(j int) bool { return other[j].start > iv.end }) - 1
				if j >= 0 && other[j].end >= iv.start {
					solo = false
				}
			}
			if !solo {
				continue
			}
			nSolo++
			answers += ops[iv.op].answers()
			d := float64(iv.end-iv.start) / 1e6
			c := float64(union(byReq[int64(iv.op)+1], iv.start, iv.end)) / 1e6
			dur += d
			covered += c
			self += d - c - healthzMs
		}
	}
	if dur > 0 {
		ls.waitShare = covered / dur
	}
	if answers > 0 {
		ls.selfPerAnswer = self / float64(answers)
	}
	if nOps > 0 {
		ls.soloShare = float64(nSolo) / float64(nOps)
	}
	return ls
}

// union is the length of [from, to] covered by the spans.
func union(spans []span, from, to int64) int64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var n, reach int64 = 0, from
	for _, s := range spans {
		lo, hi := max(s.Start, reach), min(s.End, to)
		if hi > lo {
			n += hi - lo
			reach = hi
		}
	}
	return n
}
