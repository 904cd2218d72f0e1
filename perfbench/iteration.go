package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"sword"
	"sword/internal/memsim"
	"sword/internal/omp"
	"sword/internal/trace"
	"sword/internal/workloads"
)

// liveTimeout bounds one live analysis; a live analyzer that never sees the
// end of the run fails its iteration instead of hanging the benchmark.
const liveTimeout = 60 * time.Second

// runner drives one workload's iterations through the public sword API:
// NewSession → the program → CollectOnly, then AnalyzeStoreContext with one
// worker and with nproc workers, or AnalyzeLiveStore tailing the store the
// session writes. Each timed call sits on a module boundary.
type runner struct {
	spec    spec
	prog    workloads.Workload
	size    int
	workers int // analysis workers of the parallel (MT) analysis: nproc
	rng     *rand.Rand
}

func newRunner(sp spec, smoke bool, rng *rand.Rand) (*runner, error) {
	prog, err := workloads.Get(sp.program)
	if err != nil {
		return nil, err
	}
	size := sp.size
	if smoke {
		size = sp.smokeSize
	}
	return &runner{spec: sp, prog: prog, size: size, workers: runtime.NumCPU(), rng: rng}, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// withProcs sets GOMAXPROCS to n and returns the function restoring it.
func withProcs(n int) func() {
	prev := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}

// iterate runs one iteration and returns what it measured. A nil tracer
// runs it untraced. heap makes it a set-up iteration: a single pass of the
// pipeline (one collection leg, one analysis pair) that samples the heap
// peaks of the collection and the single-worker analysis, and so is never
// a timed iteration.
func (r *runner) iterate(ctx context.Context, tr *tracer, heap bool) (samples, error) {
	out := samples{}
	var from int
	if tr != nil {
		from = tr.nextIteration()
	}
	root := tr.begin("iteration", 0)
	var err error
	if r.spec.live {
		err = r.liveIteration(ctx, tr, root, heap, out)
	} else {
		err = r.postMortemIteration(ctx, tr, root, heap, out)
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		for name, d := range tr.selfTimes(from) {
			out.add("self_ms."+name, ms(d))
		}
	}
	return out, nil
}

// newStore returns the iteration's trace store: a MemStore, wrapped to time
// its reads and writes when the iteration is traced.
func newStore(tr *tracer) (trace.Store, *timedStore) {
	if tr == nil {
		return trace.NewMemStore(), nil
	}
	ts := &timedStore{Store: trace.NewMemStore()}
	return ts, ts
}

func (r *runner) postMortemIteration(ctx context.Context, tr *tracer, root int, heap bool, out samples) error {
	var store trace.Store
	var ts *timedStore
	var collect time.Duration
	legs := r.spec.legs
	if heap {
		legs = 1
	}
	for range legs {
		swordFirst := r.rng.IntN(2) == 0
		if !swordFirst {
			out.add("omp.baseline_ms", ms(r.baselineLeg(tr, root)))
		}
		store, ts = newStore(tr)
		h := quiesce(heap)
		d, err := r.collectLeg(store, false, tr, root, out)
		if h != nil {
			out.add("collect_heap_peak_bytes", h.finish())
		}
		if err != nil {
			return err
		}
		collect = d
		if swordFirst {
			out.add("omp.baseline_ms", ms(r.baselineLeg(tr, root)))
		}
	}
	if ts != nil {
		out.add("trace.write_ms", ms(time.Duration(ts.writeNs.Load())))
	}
	reps, mts, err := r.analyses(ctx, store, ts, tr, root, heap, out)
	if err != nil {
		return err
	}
	// The production report is the parallel analysis's; it is the first
	// verdict, race or none, the user gets.
	for _, mt := range mts {
		out.add("report_ms", ms(collect+mt))
		out.add("report_lag_ms", ms(mt))
		out.add("first_race_ms", ms(collect+mt))
	}
	c := tr.begin("report.check", root)
	defer tr.end(c)
	return r.check(reps...)
}

func (r *runner) liveIteration(ctx context.Context, tr *tracer, root int, heap bool, out samples) error {
	swordFirst := r.rng.IntN(2) == 0
	if !swordFirst {
		out.add("omp.baseline_ms", ms(r.baselineLeg(tr, root)))
	}
	store, ts := newStore(tr)
	h := quiesce(heap)
	lctx, cancel := context.WithTimeout(ctx, liveTimeout)
	defer cancel()
	type liveResult struct {
		rep  *sword.Report
		st   *sword.RunStats
		err  error
		done time.Duration
	}
	launch := time.Now()
	lid := tr.begin("stream.live", root)
	var firstRace atomic.Int64 // ns since launch; 0 = none yet
	done := make(chan liveResult, 1)
	go func() {
		rep, st, err := sword.AnalyzeLiveStore(lctx, store, sword.WithOnRace(func(sword.Race) {
			firstRace.CompareAndSwap(0, int64(time.Since(launch)))
			tr.instant("stream.race", lid)
		}))
		done <- liveResult{rep, st, err, time.Since(launch)}
	}()
	_, err := r.collectLeg(store, true, tr, root, out)
	programEnd := time.Since(launch)
	if err != nil {
		cancel()
	}
	live := <-done
	tr.end(lid)
	if h != nil {
		out.add("collect_heap_peak_bytes", h.finish())
	}
	if err != nil {
		return err
	}
	if live.err != nil {
		return live.err
	}
	if ts != nil {
		out.add("trace.write_ms", ms(time.Duration(ts.writeNs.Load())))
	}
	if swordFirst {
		out.add("omp.baseline_ms", ms(r.baselineLeg(tr, root)))
	}
	first := time.Duration(firstRace.Load())
	if first == 0 { // no race surfaced before the final report
		first = live.done
	}
	out.add("report_ms", ms(live.done))
	out.add("report_lag_ms", ms(live.done-programEnd))
	out.add("first_race_ms", ms(first))
	snap := live.st.Metrics
	out.add("stream.epochs_sealed", float64(snap.Value("stream.epochs_sealed")))
	out.add("stream.rounds", float64(snap.Value("stream.rounds")))
	out.add("stream.steps_per_round", ratio(float64(snap.Value("stream.steps")), float64(snap.Value("stream.rounds"))))
	out.add("stream.tail_retries", float64(snap.Value("stream.tail_retries")))
	out.add("stream.frontier_bytes_peak", float64(snap.Value("stream.frontier_bytes_peak")))

	reps, _, err := r.analyses(ctx, store, ts, tr, root, heap, out)
	if err != nil {
		return err
	}
	c := tr.begin("report.check", root)
	defer tr.end(c)
	return r.check(append([]*sword.Report{live.rep}, reps...)...)
}

// quiesce collects garbage before a timed call, so that every call starts
// from the same heap and pays only for its own garbage. With heap set it
// starts the heap sampler instead, which collects too.
func quiesce(heap bool) *heapPeak {
	if heap {
		return startHeapPeak()
	}
	runtime.GC()
	return nil
}

// baselineLeg runs the program on a runtime with no tool attached: the
// denominator of the slowdown.
func (r *runner) baselineLeg(tr *tracer, parent int) time.Duration {
	quiesce(false)
	id := tr.begin("omp.baseline", parent)
	defer tr.end(id)
	start := time.Now()
	r.prog.Run(&workloads.Ctx{RT: omp.New(), Space: memsim.NewSpace(nil), Threads: team, Size: r.size})
	return time.Since(start)
}

// collectLeg runs the program under a SWORD session writing into store
// and closes the trace; it returns the dynamic phase's duration and
// records the collector's counters into out.
func (r *runner) collectLeg(store trace.Store, live bool, tr *tracer, parent int, out samples) (time.Duration, error) {
	id := tr.begin("rt.collect", parent)
	defer tr.end(id)
	start := time.Now()
	sess, err := sword.NewSession(sword.WithStore(store), sword.WithLiveFlush(live))
	if err != nil {
		return 0, err
	}
	p := tr.begin("rt.program", id)
	r.prog.Run(&workloads.Ctx{RT: sess.Runtime(), Space: sess.Space(), Threads: team, Size: r.size})
	tr.end(p)
	c := tr.begin("rt.close", id)
	closeStart := time.Now()
	err = sess.CollectOnly()
	closeDur := time.Since(closeStart)
	tr.end(c)
	total := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("collect: %w", err)
	}
	out.add("collect_ms", ms(total))
	out.add("rt.close_ms", ms(closeDur))
	out.add("trace_bytes", float64(store.BytesWritten()))
	snap := sess.RunStats().Metrics
	out.add("rt.events", float64(snap.Value("rt.events")))
	out.add("rt.flushes", float64(snap.Value("rt.flushes")))
	out.add("rt.fragments", float64(snap.Value("rt.fragments")))
	out.add("compress.compress_ms", ms(snap.Duration("compress.lzss.compress")))
	out.add("compress.ratio", ratio(float64(snap.Value("compress.lzss.raw_bytes")), float64(snap.Value("compress.lzss.compressed_bytes"))))
	return total, nil
}

// analyses runs the single-worker (OA) and the nproc-worker (MT) analysis
// spec.analyses times each (once when sampling the heap), every pair in a
// seeded order, plus, when traced, a standalone decode pass. It returns
// every report and the MT durations. The per-layer counters come from the
// OA analyses' obs snapshots.
func (r *runner) analyses(ctx context.Context, store trace.Store, ts *timedStore, tr *tracer, root int, heap bool, out samples) (reps []*sword.Report, mts []time.Duration, err error) {
	pairs := r.spec.analyses
	if heap {
		pairs = 1
	}
	runOA := func() error {
		h := quiesce(heap)
		var readBefore int64
		if ts != nil {
			readBefore = ts.readNs.Load()
		}
		id := tr.begin("core.analyze_oa", root)
		start := time.Now()
		rep, st, err := sword.AnalyzeStoreContext(ctx, store, sword.WithWorkers(1))
		d := time.Since(start)
		tr.end(id)
		if h != nil {
			out.add("analyze_heap_peak_bytes", h.finish())
		}
		if err != nil {
			return err
		}
		if ts != nil {
			out.add("trace.read_ms", ms(time.Duration(ts.readNs.Load()-readBefore)))
		}
		out.add("analyze_oa_ms", ms(d))
		recordCore(st.Metrics, out)
		reps = append(reps, rep)
		return nil
	}
	runMT := func() error {
		defer withProcs(r.workers)()
		quiesce(false)
		id := tr.begin("core.analyze_mt", root)
		start := time.Now()
		rep, _, err := sword.AnalyzeStoreContext(ctx, store, sword.WithWorkers(r.workers))
		d := time.Since(start)
		tr.end(id)
		if err != nil {
			return err
		}
		out.add("analyze_mt_ms", ms(d))
		reps = append(reps, rep)
		mts = append(mts, d)
		return nil
	}
	for range pairs {
		steps := []func() error{runOA, runMT}
		if r.rng.IntN(2) == 0 {
			steps[0], steps[1] = runMT, runOA
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return nil, nil, fmt.Errorf("analyze: %w", err)
			}
		}
	}
	if ts != nil {
		id := tr.begin("trace.decode", root)
		start := time.Now()
		events, err := decodePass(ts.Store)
		d := time.Since(start)
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("decode pass: %w", err)
		}
		out.add("trace.decode_ms", ms(d))
		out.add("trace.decode_events_per_s", ratio(float64(events), d.Seconds()))
	}
	return reps, mts, nil
}

// recordCore records the analyzer's per-layer counters and phase timers.
func recordCore(snap sword.Snapshot, out samples) {
	out.add("core.structure_ms", ms(snap.Duration("core.phase.structure")))
	out.add("core.trees_ms", ms(snap.Duration("core.phase.trees")))
	compare := snap.Duration("core.phase.compare")
	out.add("core.compare_ms", ms(compare))
	out.add("core.interval_pairs", float64(snap.Value("core.interval_pairs")))
	out.add("core.pairs_prefiltered", float64(snap.Value("core.pairs_prefiltered")))
	nodes := float64(snap.Value("core.tree_nodes"))
	out.add("core.tree_nodes", nodes)
	out.add("itree.nodes_per_access", ratio(nodes, float64(snap.Value("core.accesses"))))
	cmps := float64(snap.Value("core.node_comparisons"))
	out.add("core.node_comparisons", cmps)
	out.add("core.solver_calls", float64(snap.Value("core.solver_calls")))
	hits, misses := float64(snap.Value("core.solver_cache_hits")), float64(snap.Value("core.solver_cache_misses"))
	out.add("ilp.memo_hit_ratio", ratio(hits, hits+misses))
	out.add("ilp.ns_per_comparison", ratio(float64(compare), cmps))
}

// check is the correctness gate of an iteration: the first report's race
// set, by site pairs, must be the workload's expected set, and every other
// report of the same store must be identical to it race for race.
func (r *runner) check(reps ...*sword.Report) error {
	got := sitePairs(reps[0])
	if !slices.Equal(got, r.spec.races) {
		return fmt.Errorf("race set %q, want %q", got, r.spec.races)
	}
	first := raceLines(reps[0])
	for _, rep := range reps[1:] {
		if other := raceLines(rep); !slices.Equal(other, first) {
			return fmt.Errorf("reports of the same trace differ: %q vs %q", first, other)
		}
	}
	return nil
}

// sitePair names a race by its two accesses, without the witness address.
func sitePair(r sword.Race) string { return r.First.String() + " <-> " + r.Second.String() }

func sitePairs(rep *sword.Report) []string {
	var out []string
	for _, r := range rep.Races() {
		out = append(out, sitePair(r))
	}
	slices.Sort(out)
	return out
}

func raceLines(rep *sword.Report) []string {
	var out []string
	for _, r := range rep.Races() {
		out = append(out, r.String())
	}
	slices.Sort(out)
	return out
}
