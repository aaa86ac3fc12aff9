package query

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func tuple(vals ...float64) types.Tuple {
	return types.Tuple{ID: 0, Ord: vals, Cat: map[string]string{"c": "x"}}
}

func TestQueryMatches(t *testing.T) {
	q := New().
		WithRange(0, types.ClosedInterval(1, 3)).
		WithRange(1, types.OpenInterval(0, 10)).
		WithCat("c", "x")
	cases := []struct {
		tp   types.Tuple
		want bool
	}{
		{tuple(2, 5), true},
		{tuple(0.5, 5), false},
		{tuple(2, 0), false},
		{tuple(3, 9.999), true},
	}
	for i, c := range cases {
		if q.Matches(c.tp) != c.want {
			t.Errorf("case %d: Matches = %v", i, !c.want)
		}
	}
	bad := tuple(2, 5)
	bad.Cat["c"] = "y"
	if q.Matches(bad) {
		t.Error("categorical mismatch accepted")
	}
	if q.NumPredicates() != 3 {
		t.Errorf("NumPredicates = %d", q.NumPredicates())
	}
}

// TestQueryBuildersDoNotAlias guards the append trap: builders derived from
// one base whose predicate slices have spare capacity must each get their
// own storage, or the second derivation would overwrite the first's
// predicate.
func TestQueryBuildersDoNotAlias(t *testing.T) {
	// WithRanges on a repeated attribute leaves one predicate in a slice
	// sized for two.
	base := New().WithRanges([]int{3, 3}, func(int) types.Interval { return types.ClosedInterval(0, 10) })
	if len(base.ranges) != 1 || cap(base.ranges) < 2 {
		t.Fatalf("setup: base ranges len %d cap %d, want spare capacity", len(base.ranges), cap(base.ranges))
	}
	a := base.WithRange(5, types.ClosedInterval(1, 2))
	b := base.WithRange(7, types.ClosedInterval(3, 4))
	if _, ok := a.Range(7); ok {
		t.Errorf("a sees b's predicate: %s", a)
	}
	if iv, ok := a.Range(5); !ok || iv != types.ClosedInterval(1, 2) {
		t.Errorf("a lost its own predicate: %s", a)
	}
	if _, ok := b.Range(5); ok {
		t.Errorf("b sees a's predicate: %s", b)
	}
	if got := base.String(); got != "A3 ∈ [0, 10]" {
		t.Errorf("base changed to %s", got)
	}
	// Intersecting an existing predicate must not write through either.
	c := base.WithRange(3, types.ClosedInterval(5, 20))
	if iv, _ := base.Range(3); iv != types.ClosedInterval(0, 10) {
		t.Errorf("base range changed to %v by a derived intersect", iv)
	}
	if iv, _ := c.Range(3); iv != types.ClosedInterval(5, 10) {
		t.Errorf("derived intersect = %v, want [5, 10]", iv)
	}
	x := New().WithCat("m", "1").WithCat("z", "1")
	y1, y2 := x.WithCat("m", "2"), x.WithCat("p", "3")
	if v, _ := x.Cat("m"); v != "1" {
		t.Errorf("WithCat overwrote the base: %s", x)
	}
	if _, ok := y1.Cat("p"); ok {
		t.Errorf("y1 sees y2's predicate: %s", y1)
	}
	if v, _ := y2.Cat("m"); v != "1" {
		t.Errorf("y2 sees y1's overwrite: %s", y2)
	}
}

func TestWithRangeIntersects(t *testing.T) {
	q := New().WithRange(0, types.ClosedInterval(0, 10)).WithRange(0, types.ClosedInterval(5, 20))
	iv, _ := q.Range(0)
	if iv.Lo != 5 || iv.Hi != 10 {
		t.Errorf("stacked ranges = %v, want [5,10]", iv)
	}
	q2 := q.WithRange(0, types.ClosedInterval(11, 12))
	if !q2.Empty() {
		t.Error("contradictory ranges should yield Empty query")
	}
}

func TestQueryString(t *testing.T) {
	q := New().WithRange(1, types.OpenInterval(0, 1)).WithCat("b", "v").WithCat("a", "u")
	s := q.String()
	if !strings.Contains(s, "A1") || !strings.Contains(s, `"u"`) {
		t.Errorf("String = %q", s)
	}
	if New().String() != "TRUE" {
		t.Error("empty query should print TRUE")
	}
	// Deterministic ordering: categorical names sorted.
	if strings.Index(s, `"u"`) > strings.Index(s, `"v"`) {
		t.Errorf("cats not sorted: %q", s)
	}
}

func TestBoxBasics(t *testing.T) {
	b := FullBox(2)
	if b.Empty() || !b.Contains([]float64{1e12, -1e12}) {
		t.Error("FullBox broken")
	}
	b.Dims[0] = types.ClosedInterval(0, 2)
	b.Dims[1] = types.ClosedInterval(1, 3)
	if b.Volume() != 4 {
		t.Errorf("Volume = %g, want 4", b.Volume())
	}
	if !b.IsFinite() {
		t.Error("finite box reported infinite")
	}
	inner := Box{Dims: []types.Interval{types.ClosedInterval(0.5, 1), types.ClosedInterval(2, 3)}}
	if !b.ContainsBox(inner) {
		t.Error("ContainsBox(inner) = false")
	}
	if inner.ContainsBox(b) {
		t.Error("inner contains outer?")
	}
	// Open-endpoint subtlety: [0,2] does not contain (…,2]'s closed end
	// reversed — an outer open end cannot cover an inner closed end.
	outer := Box{Dims: []types.Interval{{Lo: 0, Hi: 2, HiOpen: true}, types.ClosedInterval(1, 3)}}
	innerClosed := Box{Dims: []types.Interval{types.ClosedInterval(0, 2), types.ClosedInterval(1, 3)}}
	if outer.ContainsBox(innerClosed) {
		t.Error("open outer end must not cover closed inner end")
	}
}

// TestBoxIntersectProperty: box intersection is pointwise conjunction.
func TestBoxIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	genBox := func(m int) Box {
		b := Box{Dims: make([]types.Interval, m)}
		for i := range b.Dims {
			lo := rng.Float64()*10 - 5
			b.Dims[i] = types.Interval{
				Lo: lo, Hi: lo + rng.Float64()*6 - 1,
				LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
			}
		}
		return b
	}
	f := func(seed int64) bool {
		rng.Seed(seed)
		m := 1 + rng.Intn(3)
		a, b := genBox(m), genBox(m)
		x := a.Intersect(b)
		for trial := 0; trial < 40; trial++ {
			p := make([]float64, m)
			for i := range p {
				p[i] = rng.Float64()*12 - 6
			}
			if x.Contains(p) != (a.Contains(p) && b.Contains(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxClampTo(t *testing.T) {
	b := FullBox(2).ClampTo([]float64{0, 0}, []float64{1, 2})
	if b.Volume() != 2 {
		t.Errorf("clamped volume = %g, want 2", b.Volume())
	}
	if b.String() == "" {
		t.Error("String empty")
	}
}

// refQuery is the map-based representation Query used to have: the
// reference model for key rendering and matching.
type refQuery struct {
	ranges map[int]types.Interval
	cats   map[string]string
}

func newRefQuery() refQuery {
	return refQuery{ranges: map[int]types.Interval{}, cats: map[string]string{}}
}

// String is the original fmt-based key rendering.
func (r refQuery) String() string {
	if len(r.ranges) == 0 && len(r.cats) == 0 {
		return "TRUE"
	}
	parts := make([]string, 0, len(r.ranges)+len(r.cats))
	for _, a := range slices.Sorted(maps.Keys(r.ranges)) {
		parts = append(parts, fmt.Sprintf("A%d ∈ %s", a, r.ranges[a]))
	}
	for _, n := range slices.Sorted(maps.Keys(r.cats)) {
		parts = append(parts, fmt.Sprintf("%s = %q", n, r.cats[n]))
	}
	return strings.Join(parts, " AND ")
}

// Matches is the original map-walking predicate test.
func (r refQuery) Matches(t types.Tuple) bool {
	for attr, iv := range r.ranges {
		if !iv.Contains(t.Ord[attr]) {
			return false
		}
	}
	for name, want := range r.cats {
		if t.Cat[name] != want {
			return false
		}
	}
	return true
}

// build inserts r's predicates through WithRange/WithCat, taking them in
// the order perm gives over the list of ranges (ascending attribute) then
// categorical predicates (ascending name).
func (r refQuery) build(perm []int) Query {
	var add []func(Query) Query
	for _, a := range slices.Sorted(maps.Keys(r.ranges)) {
		add = append(add, func(q Query) Query { return q.WithRange(a, r.ranges[a]) })
	}
	for _, n := range slices.Sorted(maps.Keys(r.cats)) {
		add = append(add, func(q Query) Query { return q.WithCat(n, r.cats[n]) })
	}
	q := New()
	for _, i := range perm {
		q = add[i](q)
	}
	return q
}

func (r refQuery) size() int { return len(r.ranges) + len(r.cats) }

// keyVals covers the float renderings the key must reproduce: integers,
// fractions, exponents, signed zero, infinities and NaN.
var keyVals = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-9, 1e17, 123456.789,
	math.Inf(-1), math.Inf(1), math.Pi, math.NaN()}

var (
	keyNames  = []string{"make", "color", "x y", `q"uote`, "ghost"}
	keyValues = []string{"", "UA", `he said "hi"`, "uniçode"}
)

// TestQueryStringFormatStable pins String against the original fmt-based
// rendering byte for byte across randomized queries, each built through
// WithRange/WithCat in a shuffled order. Query strings are the probe-cache
// keys persisted in journal segments, so any format drift would silently
// invalidate warm-restart probe replay.
func TestQueryStringFormatStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		ref := newRefQuery()
		for a := 0; a < rng.Intn(4); a++ {
			ref.ranges[rng.Intn(6)] = types.Interval{
				Lo: keyVals[rng.Intn(len(keyVals))], Hi: keyVals[rng.Intn(len(keyVals))],
				LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0,
			}
		}
		for c := 0; c < rng.Intn(3); c++ {
			ref.cats[keyNames[rng.Intn(4)]] = keyValues[rng.Intn(len(keyValues))]
		}
		q := ref.build(rng.Perm(ref.size()))
		if got, want := q.String(), ref.String(); got != want {
			t.Fatalf("String drifted:\n got %q\nwant %q", got, want)
		}
		if q.NumPredicates() != ref.size() {
			t.Fatalf("NumPredicates = %d, want %d for %s", q.NumPredicates(), ref.size(), ref)
		}
	}
}

// TestQueryMatchesReference compares Matches with the map-based reference
// over seeded queries and tuples, including predicates on names no tuple
// carries, tuples with no categorical map, and "" on both sides.
func TestQueryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grid := []float64{-1, 0, 0.5, 1, 2, math.Inf(1)}
	pick := func() float64 { return grid[rng.Intn(len(grid))] }
	for trial := 0; trial < 300; trial++ {
		ref := newRefQuery()
		for a := 0; a < rng.Intn(4); a++ {
			ref.ranges[rng.Intn(4)] = types.Interval{Lo: pick(), Hi: pick(), LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
		}
		for c := 0; c < rng.Intn(3); c++ {
			ref.cats[keyNames[rng.Intn(len(keyNames))]] = keyValues[rng.Intn(2)]
		}
		q := ref.build(rng.Perm(ref.size()))
		for i := 0; i < 40; i++ {
			tp := types.Tuple{Ord: []float64{pick(), pick(), pick(), pick()}}
			if rng.Intn(4) > 0 {
				tp.Cat = map[string]string{}
				for _, n := range keyNames[:4] {
					if rng.Intn(3) > 0 {
						tp.Cat[n] = keyValues[rng.Intn(2)]
					}
				}
			}
			if got, want := q.Matches(tp), ref.Matches(tp); got != want {
				t.Fatalf("%s on %v: Matches = %v, reference %v", q, tp, got, want)
			}
		}
	}
}
