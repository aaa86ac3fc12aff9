package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"
)

// workload is one traffic shape. NOTES.md says why each exists and which
// layers it loads.
type workload struct {
	name    string
	rate    float64       // operations per second, open loop
	windows int           // size of the query-window universe
	zipfS   float64       // Zipf exponent over windows; 0 = uniform
	mix     [4]int        // weights of 1d, md, batch, stream
	batchMD float64       // chance a batch item is MD rather than 1D
	warmOps int           // warm-up trace length, replayed sequentially
	rtt     time.Duration // simulated upstream round trip per search
	persist bool          // -data-dir set; drain and restart in set-up
	rounds  int           // corpus mutation rounds in the timed phase
	perRnd  int           // rows mutated per round
}

var workloads = []workload{
	{
		name: "hot-zipf", rate: 160, windows: 8, zipfS: 1.3,
		mix: [4]int{4, 3, 2, 1}, batchMD: 0.5, warmOps: 1000,
	},
	{
		name: "cold-rtt", rate: 40, windows: 256,
		mix: [4]int{2, 5, 2, 1}, batchMD: 0.7, rtt: 2 * time.Millisecond,
	},
	{
		name: "churn-persist", rate: 60, windows: 8, zipfS: 1.3,
		mix: [4]int{4, 3, 2, 1}, batchMD: 0.5, warmOps: 1000,
		persist: true, rounds: 20, perRnd: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	batchSize = 4 // items per batch operation
	maxH      = 8 // answers requested per rerank: 1..maxH
)

type opKind int

const (
	kind1D opKind = iota
	kindMD
	kindBatch
	kindStream
	kindMutate // a corpus mutation round followed by a revalidate call
)

var kindNames = [...]string{"1d", "md", "batch", "stream", "mutate"}

func (k opKind) String() string { return kindNames[k] }

// window is one element of the query-window universe: a closed range over
// one ordinal attribute. Window i covers slot i/A of attribute i%A's domain,
// the domain cut into equal slots, as cmd/loadgen tiles it.
type window struct {
	attr   int
	lo, hi float64
}

func buildWindows(n int) []window {
	slots := (n + nOrd - 1) / nOrd
	out := make([]window, n)
	for i := range out {
		a := i % nOrd
		width := (ordMax[a] - ordMin[a]) / float64(slots)
		lo := ordMin[a] + float64(i/nOrd)*width
		out[i] = window{attr: a, lo: lo, hi: min(lo+width, ordMax[a])}
	}
	return out
}

// request is one rerank request: top-h by a single attribute (1D) or by
// attr+other with unit weights (MD), restricted to one window.
type request struct {
	window int
	attr   int
	other  int // -1 for a single-attribute ranking
	desc   bool
	h      int
}

// op is one fully materialized operation of the schedule.
type op struct {
	idx  int
	kind opKind
	reqs []request
	body []byte // the HTTP request body (nil for mutate)
	// mutation round inputs, drawn at generation so the round is a pure
	// function of the seed and the corpus it finds.
	picks []mutationPick
}

type mutationPick struct {
	u      float64 // which sentinel-visible row
	attr   int
	factor float64 // new value = old × factor, clamped to the domain
}

type wireRanking struct {
	Kind    string    `json:"kind"`
	Attrs   []string  `json:"attrs"`
	Weights []float64 `json:"weights,omitempty"`
	Desc    bool      `json:"desc,omitempty"`
}

type wireRerank struct {
	Ranges  []wireRange `json:"ranges,omitempty"`
	Ranking wireRanking `json:"ranking"`
	H       int         `json:"h"`
}

func (r request) wire(u []window) wireRerank {
	w := u[r.window]
	lo, hi := w.lo, w.hi
	out := wireRerank{Ranges: []wireRange{{Attr: ordNames[w.attr], Min: &lo, Max: &hi}}, H: r.h}
	if r.other < 0 {
		out.Ranking = wireRanking{Kind: "single", Attrs: []string{ordNames[r.attr]}, Desc: r.desc}
	} else {
		out.Ranking = wireRanking{Kind: "linear", Attrs: []string{ordNames[r.attr], ordNames[r.other]}, Weights: []float64{1, 1}}
	}
	return out
}

// generator draws operations from one seeded stream. The sequence depends
// on the seed and the workload only, never on how many connections run it.
type generator struct {
	w        workload
	rng      *rand.Rand
	zipf     *rand.Zipf
	universe []window
	block    []opKind // kinds left in the current block of the mix
}

func newGenerator(w workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed)), universe: buildWindows(w.windows)}
	if w.zipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, w.zipfS, 1, uint64(w.windows-1))
	}
	return g
}

// pickKind draws kinds in shuffled blocks that hold each kind exactly as
// often as the mix weighs it, so every seed sends the same mix.
func (g *generator) pickKind() opKind {
	if len(g.block) == 0 {
		for k, wt := range g.w.mix {
			for i := 0; i < wt; i++ {
				g.block = append(g.block, opKind(k))
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	k := g.block[len(g.block)-1]
	g.block = g.block[:len(g.block)-1]
	return k
}

func (g *generator) request(md bool) request {
	wi := 0
	if g.zipf != nil {
		wi = int(g.zipf.Uint64())
	} else {
		wi = g.rng.Intn(len(g.universe))
	}
	a := g.universe[wi].attr
	r := request{window: wi, attr: a, other: -1, h: 1 + g.rng.Intn(maxH)}
	if !md {
		r.desc = g.rng.Intn(2) == 0
		return r
	}
	r.other = g.rng.Intn(nOrd - 1)
	if r.other >= a {
		r.other++
	}
	return r
}

func (g *generator) next(idx int) op {
	o := op{idx: idx, kind: g.pickKind()}
	switch o.kind {
	case kind1D, kindMD, kindStream:
		o.reqs = []request{g.request(o.kind != kind1D)}
		o.body = mustJSON(o.reqs[0].wire(g.universe))
	case kindBatch:
		items := make([]wireRerank, batchSize)
		for i := range items {
			r := g.request(g.rng.Float64() < g.w.batchMD)
			o.reqs = append(o.reqs, r)
			items[i] = r.wire(g.universe)
		}
		o.body = mustJSON(map[string]any{"requests": items})
	}
	return o
}

func (g *generator) ops(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.next(i)
	}
	return out
}

func (g *generator) mutation(idx, rows int) op {
	o := op{idx: idx, kind: kindMutate}
	for i := 0; i < rows; i++ {
		o.picks = append(o.picks, mutationPick{
			u:      g.rng.Float64(),
			attr:   g.rng.Intn(nOrd),
			factor: 0.8 + 0.4*g.rng.Float64(),
		})
	}
	return o
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// answers is how many rerank results an operation asks for: one per batch
// item, one otherwise.
func (o *op) answers() int { return len(o.reqs) }

// schedule is the timed phase: operations due at a fixed rate, with the
// mutation rounds of a churn workload due at fixed fractions of the run.
type schedule struct {
	ops []op
	due []time.Duration // offset from the start of the timed phase
}

// requests counts the operations that carry rerank requests.
func (s schedule) requests() int {
	n := 0
	for i := range s.ops {
		if s.ops[i].kind != kindMutate {
			n++
		}
	}
	return n
}

// timedSchedule draws the timed phase of workload w for seed. Operation i
// is due at i/rate; mutation round j at (j+0.5)/rounds of the run.
func timedSchedule(w workload, seed int64, seconds float64) schedule {
	g := newGenerator(w, seed)
	n := int(w.rate * seconds)
	var s schedule
	mg := newGenerator(w, seed^0x6d75746174696f6e)
	for i, j := 0, 0; i < n || j < w.rounds; {
		opDue := time.Duration(float64(i) / w.rate * float64(time.Second))
		mutDue := time.Duration((float64(j) + 0.5) / float64(max(w.rounds, 1)) * seconds * float64(time.Second))
		if j < w.rounds && (i >= n || mutDue <= opDue) {
			s.ops = append(s.ops, mg.mutation(len(s.ops), w.perRnd))
			s.due = append(s.due, mutDue)
			j++
			continue
		}
		s.ops = append(s.ops, g.next(len(s.ops)))
		s.due = append(s.due, opDue)
		i++
	}
	return s
}

// warmTrace draws the set-up trace. It is the same for every seed, so
// every run's timed phase starts from the same daemon state: the state a
// warm-up leaves (history size above all) sets the daemon's CPU per answer,
// and a seeded warm-up made that differ by a third between seeds.
func warmTrace(w workload) []op {
	return newGenerator(w, 0x7761726d).ops(w.warmOps)
}
