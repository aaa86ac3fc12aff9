// Package query models the "simplistic" conjunctive search queries that a
// client-server database accepts (§2.1 of the paper): range predicates on a
// subset of ordinal attributes plus equality predicates on categorical
// attributes. It also provides Box, the axis-aligned hyper-rectangle geometry
// used by the multi-dimensional reranking algorithms.
//
// A Query is an immutable value: its builders return a new value with freshly
// allocated predicate storage and never modify the receiver, so copies can be
// shared across goroutines and retained freely. The zero Query matches every
// tuple.
package query

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Query is a conjunctive selection over a schema: at most one interval per
// ordinal attribute (missing means unconstrained) and equality predicates on
// categorical attributes. The zero value is the match-all query.
type Query struct {
	ranges []rangePred // sorted by attr, one per attribute
	cats   []catPred   // sorted by name, one per name
}

type rangePred struct {
	attr int
	iv   types.Interval
}

type catPred struct {
	name, value string
}

func cmpAttr(p rangePred, attr int) int  { return cmp.Compare(p.attr, attr) }
func cmpName(p catPred, name string) int { return strings.Compare(p.name, name) }

// New returns an empty (match-all) query: the zero Query.
func New() Query { return Query{} }

// WithRange returns a copy of q whose constraint on ordinal attribute attr is
// intersected with iv.
func (q Query) WithRange(attr int, iv types.Interval) Query {
	return q.WithRanges([]int{attr}, func(int) types.Interval { return iv })
}

// WithRanges returns a copy of q with iv(j) intersected onto its constraint on
// ordinal attribute attrs[j], for every j in order. The predicate slice is
// allocated once, however many attributes are added.
func (q Query) WithRanges(attrs []int, iv func(j int) types.Interval) Query {
	out := make([]rangePred, len(q.ranges), len(q.ranges)+len(attrs))
	copy(out, q.ranges)
	for j, attr := range attrs {
		i, found := slices.BinarySearchFunc(out, attr, cmpAttr)
		if found {
			out[i].iv = out[i].iv.Intersect(iv(j))
		} else {
			out = slices.Insert(out, i, rangePred{attr: attr, iv: iv(j)})
		}
	}
	return Query{ranges: out, cats: q.cats}
}

// WithCat returns a copy of q with the categorical equality predicate
// name = value, replacing any earlier predicate on name.
func (q Query) WithCat(name, value string) Query {
	out := make([]catPred, len(q.cats), len(q.cats)+1)
	copy(out, q.cats)
	if i, found := slices.BinarySearchFunc(out, name, cmpName); found {
		out[i].value = value
	} else {
		out = slices.Insert(out, i, catPred{name: name, value: value})
	}
	return Query{ranges: q.ranges, cats: out}
}

// Range returns q's constraint on ordinal attribute attr, if any.
func (q Query) Range(attr int) (types.Interval, bool) {
	if i, found := slices.BinarySearchFunc(q.ranges, attr, cmpAttr); found {
		return q.ranges[i].iv, true
	}
	return types.Interval{}, false
}

// Cat returns the value q requires of categorical attribute name, if any.
func (q Query) Cat(name string) (string, bool) {
	if i, found := slices.BinarySearchFunc(q.cats, name, cmpName); found {
		return q.cats[i].value, true
	}
	return "", false
}

// Ranges yields q's range predicates as (attribute, interval) in ascending
// attribute order.
func (q Query) Ranges() iter.Seq2[int, types.Interval] {
	return func(yield func(int, types.Interval) bool) {
		for _, p := range q.ranges {
			if !yield(p.attr, p.iv) {
				return
			}
		}
	}
}

// Cats yields q's categorical predicates as (name, value) in ascending name
// order.
func (q Query) Cats() iter.Seq2[string, string] {
	return func(yield func(string, string) bool) {
		for _, p := range q.cats {
			if !yield(p.name, p.value) {
				return
			}
		}
	}
}

// Matches reports whether tuple t satisfies every predicate of q. A
// categorical attribute missing from t compares as "".
func (q Query) Matches(t types.Tuple) bool {
	for _, p := range q.ranges {
		if !p.iv.Contains(t.Ord[p.attr]) {
			return false
		}
	}
	for _, p := range q.cats {
		if t.Cat[p.name] != p.value {
			return false
		}
	}
	return true
}

// Empty reports whether the query is trivially unsatisfiable (some range is
// empty). A false return does not guarantee matching tuples exist.
func (q Query) Empty() bool {
	for _, p := range q.ranges {
		if p.iv.Empty() {
			return true
		}
	}
	return false
}

// NumPredicates returns the total number of predicates.
func (q Query) NumPredicates() int { return len(q.ranges) + len(q.cats) }

// String renders the query as a WHERE-clause-like description. It is also
// the canonical probe-cache and singleflight key, built on every upstream
// probe and persisted in journal segments and exports — so its byte-level
// format must never change. The predicates are already in key order, so it
// is assembled with strconv into one local buffer.
func (q Query) String() string {
	if len(q.ranges) == 0 && len(q.cats) == 0 {
		return "TRUE"
	}
	var buf [512]byte
	b := buf[:0]
	for i, p := range q.ranges {
		if i > 0 {
			b = append(b, " AND "...)
		}
		b = append(b, 'A')
		b = strconv.AppendInt(b, int64(p.attr), 10)
		b = append(b, " ∈ "...)
		if p.iv.LoOpen {
			b = append(b, '(')
		} else {
			b = append(b, '[')
		}
		b = strconv.AppendFloat(b, p.iv.Lo, 'g', -1, 64)
		b = append(b, ", "...)
		b = strconv.AppendFloat(b, p.iv.Hi, 'g', -1, 64)
		if p.iv.HiOpen {
			b = append(b, ')')
		} else {
			b = append(b, ']')
		}
	}
	for i, p := range q.cats {
		if i > 0 || len(q.ranges) > 0 {
			b = append(b, " AND "...)
		}
		b = append(b, p.name...)
		b = append(b, " = "...)
		b = strconv.AppendQuote(b, p.value)
	}
	return string(b)
}

// Box is an axis-aligned hyper-rectangle over a fixed list of ordinal
// attributes, expressed in *axis coordinates* (see package ranking: axis
// coordinates are oriented so that smaller is always better). Dims[i]
// constrains the i-th attribute of the owning searcher's attribute list.
type Box struct {
	Dims []types.Interval
}

// FullBox returns the box covering all of the m-dimensional axis space.
func FullBox(m int) Box {
	b := Box{Dims: make([]types.Interval, m)}
	for i := range b.Dims {
		b.Dims[i] = types.FullInterval()
	}
	return b
}

// Clone returns a deep copy of b.
func (b Box) Clone() Box {
	return Box{Dims: append([]types.Interval(nil), b.Dims...)}
}

// Empty reports whether any dimension is empty.
func (b Box) Empty() bool {
	for _, iv := range b.Dims {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// Contains reports whether axis point z lies inside the box.
func (b Box) Contains(z []float64) bool {
	for i, iv := range b.Dims {
		if !iv.Contains(z[i]) {
			return false
		}
	}
	return true
}

// Intersect returns the dimension-wise intersection of two boxes.
func (b Box) Intersect(o Box) Box {
	r := b.Clone()
	for i := range r.Dims {
		r.Dims[i] = r.Dims[i].Intersect(o.Dims[i])
	}
	return r
}

// ContainsBox reports whether o is entirely inside b.
func (b Box) ContainsBox(o Box) bool {
	for i, iv := range b.Dims {
		olo, ohi := o.Dims[i].Lo, o.Dims[i].Hi
		if olo < iv.Lo || (olo == iv.Lo && iv.LoOpen && !o.Dims[i].LoOpen) {
			return false
		}
		if ohi > iv.Hi || (ohi == iv.Hi && iv.HiOpen && !o.Dims[i].HiOpen) {
			return false
		}
	}
	return true
}

// Volume returns the product of dimension widths. Unbounded dimensions yield
// +Inf; empty boxes yield 0.
func (b Box) Volume() float64 {
	if b.Empty() {
		return 0
	}
	v := 1.0
	for _, iv := range b.Dims {
		v *= iv.Width()
	}
	return v
}

// ClampTo returns b intersected with the closed box [lo_i, hi_i] per
// dimension, useful for restricting to attribute domains.
func (b Box) ClampTo(lo, hi []float64) Box {
	r := b.Clone()
	for i := range r.Dims {
		r.Dims[i] = r.Dims[i].Intersect(types.ClosedInterval(lo[i], hi[i]))
	}
	return r
}

// String renders the box as a product of intervals.
func (b Box) String() string {
	parts := make([]string, len(b.Dims))
	for i, iv := range b.Dims {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " × ")
}

// IsFinite reports whether all dimensions are bounded.
func (b Box) IsFinite() bool {
	for _, iv := range b.Dims {
		if math.IsInf(iv.Lo, -1) || math.IsInf(iv.Hi, 1) {
			return false
		}
	}
	return true
}
