package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// result is what the load process saw of one operation. Bodies are kept
// raw and decoded after the timed phase, so decoding costs no latency.
type result struct {
	worker     int
	due        time.Time // when the schedule said to send
	emit       time.Time // when the dispatcher handed it to a connection
	send       time.Time // when a connection started sending it
	done       time.Time // when the whole response was read
	firstTuple time.Time // streams: first tuple line read
	status     int
	err        error
	body       []byte
	vDone      int // corpus version when the answer arrived
}

// runOpenLoop sends ops[i] at start+due[i] over conns connections, whether
// or not earlier operations have finished; an operation that finds every
// connection busy waits, and that wait counts in its latency. exec performs
// one operation and fills r's outcome fields.
func runOpenLoop(ops []op, due []time.Duration, conns int, exec func(o *op, r *result)) []result {
	results := make([]result, len(ops))
	// Buffered for every operation, so the dispatcher never blocks and its
	// lateness measures the timer alone.
	ch := make(chan int, len(ops))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				r := &results[i]
				r.worker = w
				r.send = time.Now()
				exec(&ops[i], r)
				if r.done.IsZero() {
					r.done = time.Now()
				}
			}
		}(w)
	}
	start := time.Now()
	for i := range ops {
		d := start.Add(due[i])
		sleepUntil(d)
		results[i].due = d
		results[i].emit = time.Now()
		ch <- i
	}
	close(ch)
	wg.Wait()
	return results
}

// sleepUntil blocks until t. It uses nanosleep(2) directly: the runtime's
// timers wake about a millisecond late on some kernels, which would add
// harness lateness to every latency.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// runSequential replays ops one after another on one connection.
func runSequential(ops []op, exec func(o *op, r *result)) []result {
	results := make([]result, len(ops))
	for i := range ops {
		r := &results[i]
		r.send = time.Now()
		r.due, r.emit = r.send, r.send
		exec(&ops[i], r)
		if r.done.IsZero() {
			r.done = time.Now()
		}
	}
	return results
}

// client talks to the daemon over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// post sends body and reads the whole response into r. Streams are read
// line by line so the first tuple's arrival is timed.
func (c *client) post(path string, body []byte, stream bool, r *result) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if !stream || resp.StatusCode != http.StatusOK {
		r.body, r.err = io.ReadAll(resp.Body)
		r.done = time.Now()
		return
	}
	br := bufio.NewReader(resp.Body)
	var buf bytes.Buffer
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && r.firstTuple.IsZero() && bytes.HasPrefix(line, []byte(`{"tuple"`)) {
			r.firstTuple = time.Now()
		}
		buf.Write(line)
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = err
			break
		}
	}
	r.done = time.Now()
	r.body = buf.Bytes()
}

var routes = [...]string{
	kind1D:     "/v1/rerank",
	kindMD:     "/v1/rerank",
	kindBatch:  "/v1/rerank/batch",
	kindStream: "/v1/rerank/stream",
	kindMutate: "/v1/upstreams/default/revalidate",
}

// executor performs operations against the daemon and the fixture.
type executor struct {
	c  *client
	fx *fixture
}

func (e *executor) exec(o *op, r *result) {
	if o.kind == kindMutate {
		if err := e.fx.applyMutations(o.picks); err != nil {
			r.err = err
			return
		}
		e.c.post(routes[kindMutate], []byte("{}"), false, r)
	} else {
		e.c.post(routes[o.kind], o.body, o.kind == kindStream, r)
	}
	r.vDone = e.fx.version()
}

// sentinelVisible lists, in ID order, the rows a sentinel pass returns:
// the top-k of each ordinal attribute's lower half-domain and of the
// unconstrained search (the probe set rerankd's sentinel issues).
func (c *corpus) sentinelVisible() []int {
	seen := map[int]bool{}
	add := func(s search) {
		ids, _ := c.topK(&s, systemK)
		for _, id := range ids {
			seen[id] = true
		}
	}
	for a := 0; a < nOrd; a++ {
		add(search{ranges: []rangePred{{attr: a, lo: ordMin[a], hi: (ordMin[a] + ordMax[a]) / 2}}})
	}
	add(search{})
	ids := make([]int, 0, len(seen))
	for id := 0; id < len(c.pos); id++ {
		if seen[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// applyMutations performs one mutation round: each pick edits one
// ordinal value of a row the sentinel probes can see.
func (f *fixture) applyMutations(picks []mutationPick) error {
	for _, p := range picks {
		c := f.current()
		vis := c.sentinelVisible()
		id := vis[int(p.u*float64(len(vis)))]
		old := c.row(id).ord[p.attr]
		v := max(ordMin[p.attr], min(ordMax[p.attr], old*p.factor))
		if err := f.mutate(id, p.attr, v); err != nil {
			return err
		}
	}
	return nil
}
