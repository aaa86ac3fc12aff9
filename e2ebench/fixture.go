package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The fixture is the daemon's only upstream: a hidden top-k database that
// speaks the hiddendb wire protocol (GET /v1/schema, POST /v1/search) over a
// seeded Blue Nile corpus ranked by desc(price/carat). It deliberately shares
// no code with the program under test: its scan is a plain loop over a
// struct slice, so its cost per call stays fixed while the program's query
// code changes.

const (
	corpusSeed = 160205100 // the dataset seed rerankd and hiddendb default to
	corpusN    = 20000
	systemK    = 30
	nOrd       = 5
	nCat       = 4
)

var (
	ordNames = [nOrd]string{"Carat", "Depth", "LWRatio", "Price", "Table"}
	ordMin   = [nOrd]float64{0.23, 0.45, 0.49, 220, 0.75}
	ordMax   = [nOrd]float64{22.74, 0.86, 0.89, 4506938, 2.75}
	catNames = [nCat]string{"Clarity", "Color", "Cut", "Shape"}
	catVals  = [nCat][]string{
		{"FL", "IF", "VVS1", "VVS2", "VS1", "VS2", "SI1", "SI2"},
		{"D", "E", "F", "G", "H", "I", "J"},
		{"Ideal", "VeryGood", "Good", "Fair"},
		{"Round", "Princess", "Cushion", "Oval", "Emerald", "Pear"},
	}
)

const (
	attrCarat = 0
	attrPrice = 3
)

// row is one diamond. Rows are never written after they are published in
// a corpus version.
type row struct {
	id  int
	ord [nOrd]float64
	cat [nCat]uint8
}

// genCorpus draws the Blue Nile corpus with the same generator, and the same
// random stream, as the repository's dataset package, in ID order.
func genCorpus(seed int64, n int) []row {
	rng := rand.New(rand.NewSource(seed))
	clamp := func(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
	rows := make([]row, n)
	for i := range rows {
		carat := clamp(0.23+math.Exp(rng.NormFloat64()*0.8-0.3), 0.23, 22.74)
		ci := rng.Intn(len(catVals[0]))
		quality := 1.6 - 0.12*float64(ci) + rng.Float64()*0.4
		price := clamp(220+2800*math.Pow(carat, 2.4)*quality, 220, 4506938)
		depth := clamp(0.58+rng.NormFloat64()*0.04, 0.45, 0.86)
		lw := clamp(0.62+rng.NormFloat64()*0.05, 0.49, 0.89)
		table := clamp(1.4+rng.NormFloat64()*0.25, 0.75, 2.75)
		color := rng.Intn(len(catVals[1]))
		cut := rng.Intn(len(catVals[2]))
		shape := rng.Intn(len(catVals[3]))
		rows[i] = row{
			id:  i,
			ord: [nOrd]float64{carat, depth, lw, price, table},
			cat: [nCat]uint8{uint8(ci), uint8(color), uint8(cut), uint8(shape)},
		}
	}
	return rows
}

func systemScore(r *row) float64 {
	return -(r.ord[attrPrice] / math.Max(r.ord[attrCarat], 1e-9))
}

// corpus is one immutable version of the hidden data: rows in system-rank
// order (best first, ties by ID), each row's rank position, and each row's
// pre-encoded wire form.
type corpus struct {
	version int
	byRank  []row
	pos     []int32  // by ID: index into byRank
	enc     [][]byte // by ID
}

type wireTuple struct {
	ID  int                `json:"id"`
	Ord map[string]float64 `json:"ord"`
	Cat map[string]string  `json:"cat,omitempty"`
}

func encodeRow(r *row) []byte {
	wt := wireTuple{ID: r.id, Ord: make(map[string]float64, nOrd), Cat: make(map[string]string, nCat)}
	for a := range ordNames {
		wt.Ord[ordNames[a]] = r.ord[a]
	}
	for c := range catNames {
		wt.Cat[catNames[c]] = catVals[c][r.cat[c]]
	}
	b, err := json.Marshal(wt)
	if err != nil {
		panic(err) // only finite floats and fixed strings reach here
	}
	return b
}

// newCorpus builds version 0 from rows in ID order (IDs 0..n-1).
func newCorpus(rows []row) *corpus {
	c := &corpus{enc: make([][]byte, len(rows))}
	for i := range rows {
		c.enc[rows[i].id] = encodeRow(&rows[i])
	}
	c.rank(rows)
	return c
}

// rank sets byRank and pos from rows sorted by (system score, ID).
func (c *corpus) rank(rows []row) {
	scores := make([]float64, len(rows))
	idx := make([]int, len(rows))
	for i := range rows {
		scores[i] = systemScore(&rows[i])
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if scores[ia] != scores[ib] {
			return scores[ia] < scores[ib]
		}
		return rows[ia].id < rows[ib].id
	})
	c.byRank = make([]row, len(rows))
	c.pos = make([]int32, len(rows))
	for p, i := range idx {
		c.byRank[p] = rows[i]
		c.pos[rows[i].id] = int32(p)
	}
}

// row returns the row with the given ID (nil when absent).
func (c *corpus) row(id int) *row {
	if id < 0 || id >= len(c.pos) {
		return nil
	}
	return &c.byRank[c.pos[id]]
}

// rangePred is one ordinal predicate of a search.
type rangePred struct {
	attr           int
	lo, hi         float64
	loOpen, hiOpen bool
}

func (p rangePred) contains(v float64) bool {
	if v < p.lo || (v == p.lo && p.loOpen) {
		return false
	}
	return !(v > p.hi || (v == p.hi && p.hiOpen))
}

// intersect narrows p by o, keeping the tighter bound on each side.
func (p rangePred) intersect(o rangePred) rangePred {
	if o.lo > p.lo || (o.lo == p.lo && o.loOpen) {
		p.lo, p.loOpen = o.lo, o.loOpen
	}
	if o.hi < p.hi || (o.hi == p.hi && o.hiOpen) {
		p.hi, p.hiOpen = o.hi, o.hiOpen
	}
	return p
}

// catPred is one categorical equality filter: the row's symbol must be sym.
type catPred struct {
	attr int
	sym  int
}

type search struct {
	ranges []rangePred
	cats   []catPred
	none   bool // a filter no row can satisfy
}

func (s *search) matches(r *row) bool {
	for _, p := range s.ranges {
		if !p.contains(r.ord[p.attr]) {
			return false
		}
	}
	for _, c := range s.cats {
		if int(r.cat[c.attr]) != c.sym {
			return false
		}
	}
	return true
}

// topK scans in rank order and stops at k matches plus one overflow witness.
func (c *corpus) topK(s *search, k int) (ids []int, overflow bool) {
	if s.none {
		return nil, false
	}
	for i := range c.byRank {
		if !s.matches(&c.byRank[i]) {
			continue
		}
		if len(ids) == k {
			return ids, true
		}
		ids = append(ids, c.byRank[i].id)
	}
	return ids, false
}

// wire request, mirroring the hiddendb protocol.
type wireRange struct {
	Attr    string   `json:"attr"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	MinOpen bool     `json:"minOpen,omitempty"`
	MaxOpen bool     `json:"maxOpen,omitempty"`
}

type wireSearch struct {
	Ranges  []wireRange       `json:"ranges,omitempty"`
	Filters map[string]string `json:"filters,omitempty"`
}

func ordIndex(name string) int {
	for a, n := range ordNames {
		if n == name {
			return a
		}
	}
	return -1
}

func catIndex(name string) int {
	for c, n := range catNames {
		if n == name {
			return c
		}
	}
	return -1
}

// compile turns a wire search into predicates with the hiddendb semantics:
// repeated ranges on one attribute intersect; a filter on a name the
// tuples do not carry compares against the empty string.
func compile(ws *wireSearch) (search, error) {
	var s search
	byAttr := map[int]int{}
	for _, wr := range ws.Ranges {
		a := ordIndex(wr.Attr)
		if a < 0 {
			return s, fmt.Errorf("unknown ordinal attribute %q", wr.Attr)
		}
		p := rangePred{attr: a, lo: math.Inf(-1), hi: math.Inf(1), loOpen: true, hiOpen: true}
		if wr.Min != nil {
			p.lo, p.loOpen = *wr.Min, wr.MinOpen
		}
		if wr.Max != nil {
			p.hi, p.hiOpen = *wr.Max, wr.MaxOpen
		}
		if j, ok := byAttr[a]; ok {
			s.ranges[j] = s.ranges[j].intersect(p)
			continue
		}
		full := rangePred{attr: a, lo: math.Inf(-1), hi: math.Inf(1), loOpen: true, hiOpen: true}
		byAttr[a] = len(s.ranges)
		s.ranges = append(s.ranges, full.intersect(p))
	}
	for name, val := range ws.Filters {
		c := catIndex(name)
		if c < 0 {
			if val != "" {
				s.none = true
			}
			continue
		}
		sym := -1
		for i, v := range catVals[c] {
			if v == val {
				sym = i
			}
		}
		if sym < 0 {
			s.none = true
			continue
		}
		s.cats = append(s.cats, catPred{attr: c, sym: sym})
	}
	return s, nil
}

// span is one traced interval. Times are nanoseconds since the run's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	ReqID  int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory; a nil recorder records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a span without parent or request; attribute sets those
// after the run.
func (r *recorder) add(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Name: name, Start: r.since(start), End: r.since(end)})
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// fixture serves the corpus and counts what it served.
type fixture struct {
	rtt time.Duration

	mu       sync.RWMutex
	versions []*corpus // every version since the last reset; the last is current

	searches atomic.Int64 // /v1/search calls answered 200
	errors   atomic.Int64 // /v1/search calls answered otherwise
	trace    atomic.Pointer[recorder]
}

func newFixture(rows []row, rtt time.Duration) *fixture {
	return &fixture{rtt: rtt, versions: []*corpus{newCorpus(rows)}}
}

func (f *fixture) current() *corpus {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.versions[len(f.versions)-1]
}

// version returns the current corpus version number.
func (f *fixture) version() int { return f.current().version }

// at returns corpus version v.
func (f *fixture) at(v int) *corpus {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.versions[v]
}

// reset drops every mutation, so a fresh daemon sees the original corpus.
func (f *fixture) reset() {
	f.mu.Lock()
	f.versions = f.versions[:1]
	f.mu.Unlock()
}

// mutate sets one row's ordinal value in a new corpus version, as an
// upstream operator editing a listing in place would. Rank order is
// recomputed; earlier versions stay intact for the oracle.
func (f *fixture) mutate(id, attr int, v float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.versions[len(f.versions)-1]
	if cur.row(id) == nil {
		return fmt.Errorf("fixture: no row with id %d", id)
	}
	rows := append([]row(nil), cur.byRank...)
	r := &rows[cur.pos[id]]
	r.ord[attr] = v
	next := &corpus{version: cur.version + 1, enc: append([][]byte(nil), cur.enc...)}
	next.enc[id] = encodeRow(r)
	next.rank(rows)
	f.versions = append(f.versions, next)
	return nil
}

type wireAttr struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Min    float64  `json:"min,omitempty"`
	Max    float64  `json:"max,omitempty"`
	Values []string `json:"values,omitempty"`
}

type wireSchema struct {
	K     int        `json:"k"`
	Attrs []wireAttr `json:"attrs"`
}

func schemaBody() wireSchema {
	s := wireSchema{K: systemK}
	for a := range ordNames {
		s.Attrs = append(s.Attrs, wireAttr{Name: ordNames[a], Kind: "ordinal", Min: ordMin[a], Max: ordMax[a]})
	}
	for c := range catNames {
		s.Attrs = append(s.Attrs, wireAttr{Name: catNames[c], Kind: "categorical", Values: catVals[c]})
	}
	return s
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, map[string]any{
		"error": map[string]any{"code": "bad_request", "message": err.Error()},
	})
}

// serve runs h on a loopback port until the returned stop is called.
func serve(h http.Handler) (url string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns once Close is called
	}()
	return "http://" + l.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

func (f *fixture) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/schema", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, schemaBody())
	})
	mux.HandleFunc("POST /v1/search", f.serveSearch)
	return mux
}

func (f *fixture) serveSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sleepUntil(start.Add(f.rtt))
	var ws wireSearch
	if err := json.NewDecoder(r.Body).Decode(&ws); err != nil {
		f.errors.Add(1)
		badRequest(w, fmt.Errorf("decode search: %w", err))
		return
	}
	s, err := compile(&ws)
	if err != nil {
		f.errors.Add(1)
		badRequest(w, err)
		return
	}
	c := f.current()
	ids, overflow := c.topK(&s, systemK)
	buf := make([]byte, 0, 256*len(ids)+32)
	if ids == nil {
		buf = append(buf, `{"tuples":null`...)
	} else {
		buf = append(buf, `{"tuples":[`...)
		for i, id := range ids {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, c.enc[id]...)
		}
		buf = append(buf, ']')
	}
	if overflow {
		buf = append(buf, `,"overflow":true}`...)
	} else {
		buf = append(buf, `,"overflow":false}`...)
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf); err != nil {
		f.errors.Add(1)
		return
	}
	f.searches.Add(1)
	f.trace.Load().add("fixture.search", start, time.Now())
}
