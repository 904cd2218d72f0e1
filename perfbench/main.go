// Command perfbench is the repository's benchmark: it measures what a
// production run of SWORD costs end to end — collection slowdown over the
// uninstrumented program, offline analysis time with one and with nproc
// workers and time until the report exists, each as a multiple of the
// uninstrumented program's time, trace size and heap peaks — and, in a
// separate traced run, how each layer contributes.
//
// It is a closed loop with one job in flight from a single process: an
// iteration runs the baseline program and the SWORD-collected program (in
// an order drawn from the seed), then analyzes the trace, then checks the
// races found. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload lulesh_postmortem --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"
	"time"
)

type config struct {
	workloads []spec
	seed      uint64
	seconds   float64
	trace     bool
	smoke     bool   // run at the tiny sizes of the self-test
	spansDir  string // where the traced run writes its spans; "" = nowhere
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// bench accumulates one workload's samples over a run.
type bench struct {
	r      *runner
	setup  []float64 // seconds per set-up
	heap   samples   // from the set-up iterations
	plain  samples   // untraced timed iterations
	traced samples   // traced timed iterations
	tr     *tracer
	// attempted and failed count every iteration, set-ups included.
	attempted, failed int
	errs              io.Writer
}

func (b *bench) record(dst samples, s samples, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.errs, "%s: iteration failed: %v\n", b.r.spec.name, err)
		return
	}
	for k, vs := range s {
		dst[k] = append(dst[k], vs...)
	}
}

// setupOnce runs one set-up: an untimed pass that samples the heap.
func (b *bench) setupOnce(ctx context.Context) {
	start := time.Now()
	s, err := b.r.iterate(ctx, nil, true)
	b.setup = append(b.setup, time.Since(start).Seconds())
	b.record(b.heap, s, err)
}

// step runs one timed iteration; the traced run alternates traced and
// untraced ones so that their difference is the tracing overhead.
func (b *bench) step(ctx context.Context, traced bool) {
	if traced {
		s, err := b.r.iterate(ctx, b.tr, false)
		b.record(b.traced, s, err)
		return
	}
	s, err := b.r.iterate(ctx, nil, false)
	b.record(b.plain, s, err)
}

// endToEndMetrics reports the untraced iterations' medians.
func (b *bench) endToEndMetrics() map[string]value {
	out := make(map[string]value, len(endToEnd))
	for _, m := range endToEnd {
		var v float64
		switch src, rel := relative[m.name]; {
		case rel:
			v = ratio(b.plain.median(src), b.plain.median("omp.baseline_ms"))
		case m.name == "setup_s":
			v = median(b.setup)
		case m.name == "collect_heap_peak_bytes" || m.name == "analyze_heap_peak_bytes":
			v = b.heap.median(m.name)
		default:
			v = b.plain.median(m.name)
		}
		out[m.name] = value{v, m.unit}
	}
	return out
}

// perLayerMetrics reports the traced iterations' medians, with the
// figures derived from several of them.
func (b *bench) perLayerMetrics() map[string]value {
	t := b.traced
	collect, baseline := t.median("collect_ms"), t.median("omp.baseline_ms")
	derived := map[string]float64{
		"rt.overhead_ms":  collect - baseline,
		"rt.ns_per_event": ratio((collect-baseline)*1e6, t.median("rt.events")),
		"mt.speedup":      ratio(t.median("analyze_oa_ms"), t.median("analyze_mt_ms")),
	}
	for _, m := range overheadOf {
		tv, uv := t.median(m), b.plain.median(m)
		derived["traced."+m] = tv
		derived["untraced."+m] = uv
		derived["tracing_overhead."+m] = tv - uv
	}
	out := make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		v, ok := derived[m.name]
		if !ok {
			v = t.median(m.name)
		}
		out[m.name] = value{v, m.unit}
	}
	return out
}

func run(ctx context.Context, cfg config, stdout, stderr io.Writer) (result, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5eed))
	benches := make([]*bench, len(cfg.workloads))
	for i, sp := range cfg.workloads {
		r, err := newRunner(sp, cfg.smoke, rand.New(rand.NewPCG(cfg.seed, uint64(i))))
		if err != nil {
			return result{}, err
		}
		b := &bench{r: r, heap: samples{}, plain: samples{}, traced: samples{}, errs: stderr}
		if cfg.trace {
			b.tr = newTracer()
		}
		benches[i] = b
	}
	// A set-up is one untimed pass of the pipeline that also samples the
	// heap peaks; setup_s and the heap peaks are the medians over them.
	for _, i := range rng.Perm(len(benches)) {
		for range benches[i].r.spec.setups {
			benches[i].setupOnce(ctx)
		}
	}
	// Timed iterations run on one processor, apart from the nproc-worker
	// analysis: a goroutine handing work to another processor waits for
	// the host to wake it, and that wait varies more from run to run than
	// the work. The live analyzer shares the processor with the program.
	defer withProcs(1)()
	// Rounds run one iteration of every workload in a seeded order until
	// the measuring time is up; the traced run alternates traced and
	// untraced rounds, starting with a seeded choice.
	tracedRound := rng.IntN(2) == 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline) || (cfg.trace && round < 2); round++ {
		for _, i := range rng.Perm(len(benches)) {
			benches[i].step(ctx, cfg.trace && tracedRound)
		}
		tracedRound = !tracedRound
	}

	res := result{Metrics: make(map[string]value)}
	for _, b := range benches {
		res.Attempted += b.attempted
		res.Failed += b.failed
		ms := b.endToEndMetrics()
		if cfg.trace {
			ms = b.perLayerMetrics()
			if cfg.spansDir != "" {
				name := fmt.Sprintf("%s-seed%d.jsonl", b.r.spec.name, cfg.seed)
				if err := b.tr.write(cfg.spansDir, name); err != nil {
					return result{}, fmt.Errorf("write spans: %w", err)
				}
			}
		}
		printTable(stdout, b, ms)
		for k, v := range ms {
			if len(benches) > 1 {
				k = b.r.spec.name + "/" + k
			}
			res.Metrics[k] = v
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// printTable prints one workload's metrics by name with their units, the
// medians in ms of its untraced iterations' timings, and its error rate.
func printTable(w io.Writer, b *bench, ms map[string]value) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s (%d iterations, %d failed)\n", b.r.spec.name, b.attempted, b.failed)
	for _, k := range names {
		fmt.Fprintf(w, "%-40s %16.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
	for _, k := range timings {
		q1, q3 := quartiles(b.plain[k])
		fmt.Fprintf(w, "%-40s %16.4f ms (median of %d; quartiles %.4f, %.4f)\n", k, b.plain.median(k), len(b.plain[k]), q1, q3)
	}
	fmt.Fprintf(w, "%-40s %16.4f %s\n", "error_rate", ratio(float64(b.failed), float64(b.attempted)), "ratio")
}

func main() {
	workload := flag.String("workload", "", "workload name, or \"all\" to interleave every workload")
	seed := flag.Uint64("seed", 1, "seed ordering the legs of every iteration and the workloads of a round")
	seconds := flag.Float64("seconds", 20, "measuring time after set-up")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traced == 1, spansDir: ".bench_build/spans"}
	if *workload == "all" {
		cfg.workloads = specs
	} else {
		sp, err := specByName(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		cfg.workloads = []spec{sp}
	}
	res, err := run(context.Background(), cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
