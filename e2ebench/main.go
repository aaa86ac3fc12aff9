// Command e2ebench is the repository's end-to-end benchmark. It runs the
// rerankd binary as a black-box subprocess at its default flags over a
// fixture upstream of its own, drives it through its public HTTP API from
// an open-loop load generator, checks every answer against a brute-force
// oracle and every query against the fixture's ledger, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run). The last line of standard output is one JSON object.
//
//	bash e2ebench/run.sh --workload hot-zipf --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 20
//
// run.sh builds rerankd and this command into .bench_build first. NOTES.md
// explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// checkpointInterval is the churn-persist daemon's -checkpoint-interval,
// short enough that the timed phase checkpoints several times.
const checkpointInterval = 2 * time.Second

// setups is how many times a run sets up a daemon; setup_s is the median.
const setups = 3

// healthzProbes is how many sequential /healthz calls set the transport
// baseline.
const healthzProbes = 200

// live tracks running daemons so a signal or the watchdog can end them.
var live struct {
	sync.Mutex
	ds map[*daemon]bool
}

func track(d *daemon, on bool) {
	live.Lock()
	defer live.Unlock()
	if live.ds == nil {
		live.ds = map[*daemon]bool{}
	}
	if on {
		live.ds[d] = true
	} else {
		delete(live.ds, d)
	}
}

func killAll() {
	live.Lock()
	defer live.Unlock()
	for d := range live.ds {
		d.kill()
	}
}

type config struct {
	bin     string
	work    string
	seed    int64
	seconds float64
	trace   bool
	conns   int
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated traffic and corpus mutations")
		seconds = flag.Float64("seconds", 25, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin     = flag.String("rerankd", ".bench_build/rerankd", "rerankd binary built from the tree under test")
		work    = flag.String("work", ".bench_build", "directory for daemon logs, data dirs and traces")
	)
	flag.Parse()
	// One load process uses no more connections than there are CPUs.
	cfg := config{bin: *bin, work: *work, seed: *seed, seconds: *seconds, trace: *trace == 1, conns: runtime.NumCPU()}
	if _, err := os.Stat(cfg.bin); err != nil {
		fail(fmt.Errorf("rerankd binary: %w", err))
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(2)
	}()
	if *wname == "all" {
		runAll(cfg)
		return
	}
	w, err := findWorkload(*wname)
	if err != nil {
		fail(err)
	}
	// A run must end within 180s; end it, and its daemon, before that.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded 170s")
		killAll()
		os.Exit(3)
	})
	rep, err := run(w, cfg)
	if err != nil {
		fail(err)
	}
	rep.print(os.Stdout, "")
	rep.printJSON(os.Stdout)
}

func fail(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// runAll runs every workload untraced and traced, prints every metric and
// the tracing overhead, and ends with one JSON object over all of them.
func runAll(cfg config) {
	all := &report{correct: true, metrics: map[string]metric{}}
	for _, w := range workloads {
		var p50 [2]float64
		var cpu [2]float64
		for t := 0; t < 2; t++ {
			c := cfg
			c.trace = t == 1
			rep, err := run(w, c)
			if err != nil {
				fail(fmt.Errorf("%s: %w", w.name, err))
			}
			rep.print(os.Stdout, w.name+".")
			all.correct = all.correct && rep.correct
			all.attempted += rep.attempted
			all.failed += rep.failed
			for k, m := range rep.metrics {
				all.metrics[w.name+"."+k] = m
			}
			p50[t], cpu[t] = rep.p50, rep.cpuPerAnswer
		}
		fmt.Printf("%s.trace.overhead  p50 %+.1f%%  cpu/answer %+.1f%%\n", w.name,
			100*(p50[1]/p50[0]-1), 100*(cpu[1]/cpu[0]-1))
	}
	all.printJSON(os.Stdout)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string

	// traced and untraced runs both keep these for the overhead line
	p50, cpuPerAnswer float64
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) print(f *os.File, prefix string) {
	for _, n := range r.notes {
		fmt.Fprintf(f, "%s%s\n", prefix, n)
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "%s%-32s %14.6g %s\n", prefix, k, r.metrics[k].Value, r.metrics[k].Unit)
	}
}

func (r *report) printJSON(f *os.File) {
	out, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(f, string(out))
}

// setup is one set-up's outcome.
type setup struct {
	d        *daemon
	c        *client
	dur      time.Duration
	replay   time.Duration
	healthz  float64 // p50 ms
	restored float64 // of the three knowledge gauges' after/before-restart ratios, the one farthest from 1
	dataDir  string
}

// run performs one benchmark run of workload w.
func run(w workload, cfg config) (*report, error) {
	epoch := time.Now()
	runDir, err := filepath.Abs(filepath.Join(cfg.work, "run", fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	fx := newFixture(genCorpus(corpusSeed, corpusN), w.rtt)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(epoch)
		fx.trace.Store(rec)
	}
	upstream, stopFixture, err := serve(fx.handler())
	if err != nil {
		return nil, err
	}
	defer stopFixture()

	universe := buildWindows(w.windows)
	or := newOracle(fx, universe)
	rep := &report{correct: true, metrics: map[string]metric{}}
	warm := warmTrace(w)
	sched := timedSchedule(w, cfg.seed, cfg.seconds)

	var durs, replays []float64
	var su *setup
	for i := 0; i < setups; i++ {
		if su != nil {
			su.c.close()
			err := su.d.stop()
			track(su.d, false)
			if err != nil {
				return nil, err
			}
		}
		fx.reset()
		su, err = setUp(w, cfg, fx, or, upstream, runDir, i, warm, rec, rep)
		if err != nil {
			return nil, err
		}
		durs = append(durs, su.dur.Seconds())
		replays = append(replays, float64(su.replay)/1e6)
	}
	d, c := su.d, su.c
	defer func() {
		killAll()
		c.close()
	}()

	// Timed phase.
	ex := &executor{c: c, fx: fx}
	st0, err := fetchStats(c)
	if err != nil {
		return nil, err
	}
	k0, err := readCounters(d)
	if err != nil {
		return nil, err
	}
	searches0, fxErr0 := fx.searches.Load(), fx.errors.Load()
	nSlices := max(1, sched.requests()/sliceOps)
	sliceLen := time.Duration(cfg.seconds * float64(time.Second) / float64(nSlices))
	cpuAt := make([]time.Duration, nSlices+1) // daemon CPU at each slice boundary
	cpuAt[0] = k0.daemonCPU
	var cpuErr error
	sampled := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(sampled)
		for j := 1; j < nSlices; j++ {
			sleepUntil(t0.Add(time.Duration(j) * sliceLen))
			v, e := d.cpuTime()
			if e != nil {
				cpuErr = e
			}
			cpuAt[j] = v
		}
	}()
	res := runOpenLoop(sched.ops, sched.due, cfg.conns, ex.exec)
	tEnd := time.Now()
	<-sampled
	if cpuErr != nil {
		return nil, cpuErr
	}
	k1, err := readCounters(d)
	if err != nil {
		return nil, err
	}
	cpuAt[nSlices] = k1.daemonCPU
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	st1, err := fetchStats(c)
	if err != nil {
		return nil, err
	}
	searches := fx.searches.Load() - searches0
	fxErrs := fx.errors.Load() - fxErr0
	err = d.stop()
	track(d, false)
	if err != nil {
		return nil, err
	}
	var disk int64
	if su.dataDir != "" {
		if disk, err = dirBytes(su.dataDir); err != nil {
			return nil, err
		}
	}

	// Decode and check every answer.
	t, err := checkTimed(sched, res, or, nSlices, sliceLen, rep)
	if err != nil {
		return nil, err
	}

	// Ledger: every search the fixture served is charged to exactly one
	// answer or revalidation.
	if fxErrs != 0 || searches != t.queries+t.revalQ || t.errs != 0 {
		rep.correct = false
		rep.notes = append(rep.notes, fmt.Sprintf("LEDGER MISMATCH: fixture served %d searches (%d failed), answers charged %d, revalidation %d, %d failed operations",
			searches, fxErrs, t.queries, t.revalQ, t.errs))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("ledger: fixture served %d searches = %d charged to answers + %d revalidation", searches, t.queries, t.revalQ))
	}
	// A wrong answer over a corpus that never changed has no excuse. On a
	// mutating corpus wrong answers are counted in failed and ok_share
	// (NOTES.md records the known defect they show).
	if t.wrong > 0 && w.rounds == 0 {
		rep.correct = false
	}
	rep.notes = append(rep.notes, fmt.Sprintf("oracle: %d wrong of %d operations (%d answers)", t.wrong, rep.attempted, t.answers))
	if w.rounds > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("epoch: %d of %d mutation rounds bumped the epoch", t.bumps, w.rounds))
	}
	if w.persist && su.restored != 1 {
		rep.correct = false
		rep.notes = append(rep.notes, fmt.Sprintf("RESTART CHECK FAILED: knowledge restored ratio %v", su.restored))
	}
	if t.answers == 0 {
		return nil, errors.New("no answers in the timed phase")
	}

	// Latency and CPU are the medians over the slices of the timed phase,
	// so a burst of load from outside the benchmark moves one slice, not
	// the run's figure. Each slice holds at least sliceOps operations.
	var p50s, p90s, p99s, cpus []float64
	for j := range t.sliceLat {
		p50s = append(p50s, percentile(t.sliceLat[j], 50))
		p90s = append(p90s, percentile(t.sliceLat[j], 90))
		p99s = append(p99s, percentile(t.sliceLat[j], 99))
		cpus = append(cpus, ms(cpuAt[j+1]-cpuAt[j])/float64(t.sliceAnswers[j]))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("slices: p50 %s ms; p90 %s ms; p99 %s ms; cpu %s ms/answer", fmtList(p50s), fmtList(p90s), fmtList(p99s), fmtList(cpus)))
	na := float64(t.answers)
	rep.p50 = median(p50s)
	rep.cpuPerAnswer = median(cpus)
	rep.notes = append(rep.notes, fmt.Sprintf("%s seed %d: %d operations (%d answers) in %.1fs, %d ok, %d shed, %d errors, %d wrong; latency and cpu: medians of %d slices of >= %d operations",
		w.name, cfg.seed, rep.attempted, t.answers, tEnd.Sub(t0).Seconds(), t.ok, t.sheds, t.errs, t.wrong, nSlices, sliceOps))

	top := 0
	for _, n := range t.winHits {
		top = max(top, n)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("mix: %d 1d, %d md, %d batch, %d stream operations, %.1f%% of answers MD; windows: %d distinct, top-1 share %.1f%%; probe LRU %d of %d entries",
		t.kindCount[kind1D], t.kindCount[kindMD], t.kindCount[kindBatch], t.kindCount[kindStream], 100*float64(t.mdAnswers)/na,
		len(t.winHits), 100*float64(top)/na, st1.ProbeCacheEntries, probeLRUCapacity))

	if !cfg.trace {
		rep.set("setup_s", median(durs), "s")
		rep.set("upstream_q_per_answer", float64(t.queries)/na, "q/answer")
		rep.set("cpu_ms_per_answer", rep.cpuPerAnswer, "ms/answer")
		rep.set("rss_mb", float64(rss)/(1<<20), "MB")
		rep.set("ok_share", 1-float64(rep.failed)/float64(rep.attempted), "share")
		return rep, os.RemoveAll(runDir)
	}

	// Per-layer metrics of the traced run.
	fx.trace.Store(nil)
	rep.set("loadgen.ops", float64(rep.attempted), "count")
	rep.set("latency.p50_ms", rep.p50, "ms")
	rep.set("latency.p90_ms", median(p90s), "ms")
	rep.set("latency.p99_ms", median(p99s), "ms")
	rep.set("loadgen.cpu_ms_per_answer", ms(k1.harnessCPU-k0.harnessCPU)/na, "ms/answer")
	rep.set("host.steal_share", float64(k1.steal-k0.steal)/float64(max(1, k1.ticks-k0.ticks)), "share")
	rep.set("daemon.runq_wait_ms_per_answer", ms(k1.runqWait-k0.runqWait)/na, "ms/answer")
	rep.set("loadgen.late_p99_ms", percentile(t.late, 99), "ms")
	rep.set("loadgen.queue_p99_ms", percentile(t.queue, 99), "ms")

	var svc [4][]float64
	var ttft []float64
	for i := range res {
		o, r := &sched.ops[i], &res[i]
		if o.kind == kindMutate || t.outcomes[i].err != nil || t.outcomes[i].shed {
			continue
		}
		k := o.kind
		if k == kindMD {
			k = kind1D
		}
		svc[k] = append(svc[k], ms(r.done.Sub(r.send)))
		if o.kind == kindStream && !r.firstTuple.IsZero() {
			ttft = append(ttft, ms(r.firstTuple.Sub(r.send)))
		}
	}
	rep.set("service.rerank.p50_ms", percentile(svc[kind1D], 50), "ms")
	rep.set("service.batch.p50_ms", percentile(svc[kindBatch], 50), "ms")
	rep.set("service.stream.p50_ms", percentile(svc[kindStream], 50), "ms")
	rep.set("service.stream.ttft_p50_ms", percentile(ttft, 50), "ms")
	rep.set("service.resp_bytes_per_answer", float64(t.respBytes)/na, "bytes/answer")
	rep.set("service.shed_share", float64(t.sheds)/float64(rep.attempted), "share")
	rep.set("service.healthz_p50_ms", su.healthz, "ms")

	rep.set("core.zero_q_share", float64(t.zeroQ)/na, "share")
	rep.set("core.probe_cache_entries", float64(st1.ProbeCacheEntries), "count")
	rep.set("core.md_dense_regions", float64(st1.MDDenseRegions), "count")
	spec := 0.0
	if n := st1.SpecProbesIssued - st0.SpecProbesIssued; n > 0 {
		spec = float64(st1.SpecProbesWasted-st0.SpecProbesWasted) / float64(n)
	}
	rep.set("core.spec_waste_ratio", spec, "ratio")
	rep.set("history.tuples", float64(st1.HistoryTuples), "count")
	rep.set("storage.approx_mb", float64(st1.StorageApproxBytes)/(1<<20), "MB")

	rep.set("epoch.bumps", float64(st1.EpochBumps-st0.EpochBumps), "count")
	rep.set("epoch.revalidate_p50_ms", percentile(t.revalMs, 50), "ms")
	rep.set("epoch.reval_promoted", float64(st1.RevalPromoted-st0.RevalPromoted), "count")
	rep.set("epoch.reval_evicted", float64(st1.RevalEvicted-st0.RevalEvicted), "count")
	rep.set("oracle.wrong_ops", float64(t.wrong), "count")

	if w.persist {
		rep.set("persist.replay_ms", median(replays), "ms")
		rep.set("persist.restored_ratio", su.restored, "ratio")
	} else {
		rep.set("persist.replay_ms", 0, "ms")
		rep.set("persist.restored_ratio", 0, "ratio")
	}
	rep.set("persist.checkpoints", float64(st1.PersistCheckpoints-st0.PersistCheckpoints), "count")
	rep.set("persist.bytes_per_answer", float64(st1.PersistBytesAppended-st0.PersistBytesAppended)/na, "bytes/answer")
	rep.set("persist.disk_mb", float64(disk)/(1<<20), "MB")

	spans := attribute(rec, sched.ops, res, cfg.conns)
	lay := layers(spans, sched.ops, res, rec, cfg.conns, t0, tEnd, su.healthz)
	rep.set("upstream.calls_per_answer", float64(lay.calls)/na, "calls/answer")
	rep.set("upstream.ms_per_call", lay.msPerCall, "ms")
	rep.set("upstream.wait_share", lay.waitShare, "share")
	rep.set("upstream.inflight_max", float64(lay.inflightMax), "count")
	rep.set("upstream.attributed_share", lay.attributed, "share")
	rep.set("core.self_ms_per_answer", lay.selfPerAnswer, "ms/answer")
	rep.set("trace.solo_share", lay.soloShare, "share")
	rep.set("trace.spans", float64(len(spans)), "count")
	rep.set("trace.cpu_ms_per_answer", rep.cpuPerAnswer, "ms/answer")
	if err := writeSpans(filepath.Join(cfg.work, "traces", w.name+".jsonl"), spans); err != nil {
		return nil, err
	}
	return rep, os.RemoveAll(runDir)
}

// tally is the timed phase's operations, decoded and checked.
type tally struct {
	lat, queue, late []float64 // latency from due, due to send, due to dispatch
	sliceLat         [][]float64
	sliceAnswers     []int
	answers, ok      int
	wrong, sheds     int
	errs             int
	zeroQ            int
	respBytes        int
	mdAnswers        int
	queries, revalQ  int64
	revalMs          []float64
	bumps            int
	kindCount        [4]int
	winHits          map[int]int
	outcomes         []outcome
}

// checkTimed decodes every timed operation, checks its answers with the
// oracle, and tallies the outcome. The first few failures become notes.
func checkTimed(sched schedule, res []result, or *oracle, nSlices int, sliceLen time.Duration, rep *report) (*tally, error) {
	t := &tally{
		winHits:      map[int]int{},
		outcomes:     make([]outcome, len(res)),
		sliceLat:     make([][]float64, nSlices),
		sliceAnswers: make([]int, nSlices),
	}
	shown := 0
	known := knownVersions(sched.ops, res)
	for i := range res {
		o, r := &sched.ops[i], &res[i]
		out := decode(o, r)
		t.outcomes[i] = out
		if o.kind == kindMutate {
			if out.err != nil {
				return nil, fmt.Errorf("mutation round %d: %w", i, out.err)
			}
			t.revalQ += out.queries
			t.revalMs = append(t.revalMs, ms(r.done.Sub(r.send)))
			if out.reval.Bumped {
				t.bumps++
			}
			continue
		}
		rep.attempted++
		t.kindCount[o.kind]++
		t.answers += o.answers()
		slice := min(nSlices-1, int(sched.due[i]/sliceLen))
		t.sliceAnswers[slice] += o.answers()
		t.respBytes += len(r.body)
		t.late = append(t.late, ms(r.emit.Sub(r.due)))
		t.queue = append(t.queue, ms(r.send.Sub(r.due)))
		for _, q := range o.reqs {
			t.winHits[q.window]++
			if q.other >= 0 {
				t.mdAnswers++
			}
		}
		bad := false
		switch {
		case out.shed:
			t.sheds++
			bad = true
		case out.err != nil:
			t.errs++
			bad = true
			if shown < 5 {
				shown++
				rep.notes = append(rep.notes, fmt.Sprintf("error: op %d (%s): %v", i, o.kind, out.err))
			}
		default:
			t.queries += out.queries
			for j, a := range out.answers {
				if a.QueriesIssued == 0 {
					t.zeroQ++
				}
				from := known(r.send)
				if diff := or.checkAny(o.reqs[j], a, from, r.vDone); diff != "" {
					bad = true
					if shown < 5 {
						shown++
						rep.notes = append(rep.notes, fmt.Sprintf("wrong answer: op %d (%s) item %d, corpus v%d..v%d: %s",
							i, o.kind, j, from, r.vDone, diff))
					}
				}
			}
			if bad {
				t.wrong++
			}
		}
		if bad {
			rep.failed++
		} else {
			t.ok++
		}
		// Errors and sheds miss every latency limit. A wrong answer did
		// arrive: it keeps its latency and counts against ok_share.
		l := missed
		if !out.shed && out.err == nil {
			l = ms(r.done.Sub(r.due))
		}
		t.lat = append(t.lat, l)
		t.sliceLat[slice] = append(t.sliceLat[slice], l)
	}

	return t, nil
}

// counters are the process and machine counters the timed phase is
// measured between.
type counters struct {
	daemonCPU, runqWait, harnessCPU time.Duration
	steal, ticks                    int64
}

func readCounters(d *daemon) (counters, error) {
	var k counters
	var err error
	if k.daemonCPU, err = d.cpuTime(); err != nil {
		return k, err
	}
	if k.runqWait, err = d.runqWait(); err != nil {
		return k, err
	}
	if k.harnessCPU, err = procCPU(os.Getpid()); err != nil {
		return k, err
	}
	k.steal, k.ticks, err = cpuTicks()
	return k, err
}

// sliceOps is the fewest operations a slice of the timed phase holds: at
// least ten samples lie beyond each slice's p99.
const sliceOps = 1000

// probeLRUCapacity is rerankd's default probe-cache size per namespace.
const probeLRUCapacity = 1024

// setUp launches a daemon and brings it to the state the timed phase
// starts from. Its duration is one setup_s sample.
func setUp(w workload, cfg config, fx *fixture, or *oracle, upstream, runDir string, i int,
	warm []op, rec *recorder, rep *report) (*setup, error) {
	su := &setup{}
	if w.persist {
		su.dataDir = filepath.Join(runDir, fmt.Sprintf("data-%d", i))
	}
	logPath := filepath.Join(runDir, "rerankd.log")
	searches0 := fx.searches.Load()
	launch := time.Now()
	d, err := startDaemon(cfg.bin, upstream, su.dataDir, logPath)
	if err != nil {
		return nil, err
	}
	track(d, true)
	c := newClient(d.base, cfg.conns)
	ex := &executor{c: c, fx: fx}
	warmStart := time.Now()
	res := runSequential(warm, ex.exec)
	rec.add("warmup", warmStart, time.Now())
	var charged int64
	for j := range res {
		out := decode(&warm[j], &res[j])
		if out.err != nil || out.shed {
			return nil, fmt.Errorf("warm-up op %d (%s) failed: shed=%v %v", j, warm[j].kind, out.shed, out.err)
		}
		charged += out.queries
		for k, a := range out.answers {
			if diff := or.check(warm[j].reqs[k], a, 0); diff != "" {
				rep.correct = false
				rep.notes = append(rep.notes, fmt.Sprintf("wrong warm-up answer: op %d item %d: %s", j, k, diff))
			}
		}
	}
	if w.persist {
		before, err := fetchStats(c)
		if err != nil {
			return nil, err
		}
		restart := time.Now()
		c.close()
		err = d.stop()
		track(d, false)
		if err != nil {
			return nil, err
		}
		relaunch := time.Now()
		if d, err = startDaemon(cfg.bin, upstream, su.dataDir, logPath); err != nil {
			return nil, err
		}
		track(d, true)
		su.replay = time.Since(relaunch)
		rec.add("restart", restart, time.Now())
		c = newClient(d.base, cfg.conns)
		after, err := fetchStats(c)
		if err != nil {
			return nil, err
		}
		su.restored = 1
		for _, g := range [][2]int{
			{after.HistoryTuples, before.HistoryTuples},
			{after.ProbeCacheEntries, before.ProbeCacheEntries},
			{after.MDDenseRegions, before.MDDenseRegions},
		} {
			if r := ratio(g[0], g[1]); math.Abs(math.Log(r)) > math.Abs(math.Log(su.restored)) {
				su.restored = r
			}
		}
		// The sentinel's first pass records its baseline digests.
		var r result
		r.send = time.Now()
		c.post(routes[kindMutate], []byte("{}"), false, &r)
		rec.add("revalidate", r.send, r.done)
		out := decode(&op{kind: kindMutate}, &r)
		if out.err != nil {
			return nil, fmt.Errorf("baseline revalidate: %w", out.err)
		}
		charged += out.queries
	}
	hz := make([]float64, healthzProbes)
	for j := range hz {
		t := time.Now()
		if err := c.get("/healthz", nil); err != nil {
			return nil, err
		}
		hz[j] = ms(time.Since(t))
	}
	su.healthz = percentile(hz, 50)
	su.dur = time.Since(launch)
	rec.add("setup", launch, time.Now())
	if served := fx.searches.Load() - searches0; served != charged || fx.errors.Load() != 0 {
		rep.correct = false
		rep.notes = append(rep.notes, fmt.Sprintf("LEDGER MISMATCH in set-up %d: fixture served %d searches, charged %d", i, served, charged))
	}
	su.d, su.c = d, c
	return su, nil
}

func ratio(after, before int) float64 {
	if before == 0 {
		if after == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(after) / float64(before)
}

func fetchStats(c *client) (stats, error) {
	var st stats
	if err := c.get("/v1/stats", &st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	if st.ProbeRetries != 0 || st.ProbeFailures != 0 {
		return st, fmt.Errorf("stats: %d probe retries, %d probe failures against a fixture that never fails", st.ProbeRetries, st.ProbeFailures)
	}
	if st.PersistLastError != "" {
		return st, fmt.Errorf("stats: persistence error %q", st.PersistLastError)
	}
	return st, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(parts, " ")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// missed is the latency of an operation that failed or was shed: larger
// than any limit, and still a number JSON can carry.
const missed = math.MaxFloat64

// percentile is the nearest-rank percentile.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
