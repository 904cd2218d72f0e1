package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"sword"
	"sword/internal/compress"
	"sword/internal/itree"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/rt"
	"sword/internal/trace"
	"sword/internal/workloads"
)

// BenchResult is one micro-benchmark's measurements, the schema of the
// BENCH_*.json artifacts (documented in EXPERIMENTS.md).
type BenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	EventsPerS  float64 `json:"events_per_s,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics carries any further benchmark-specific values reported via
	// b.ReportMetric — the analyzer benchmarks use it for solver-effort
	// counters (solver_calls, solver_cache_hits, sites_suppressed).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// contendedThreads is the team size of the contended collection shape.
const contendedThreads = 8

// collectContended runs the contended collection shape and returns the
// still-open collector: contendedThreads team members each append n writes
// to their own slot, with 4096-event buffers so flushes are frequent. Any
// write to shared memory on the per-event path turns into cache-line
// traffic between the team here.
func collectContended(n int, cfg rt.Config) *rt.Collector {
	cfg.MaxEvents = 4096
	col := rt.New(trace.NewMemStore(), cfg)
	rtm := omp.New(omp.WithTool(col))
	pc := pcreg.Site("bench:contended")
	rtm.Parallel(contendedThreads, func(th *omp.Thread) {
		base := 0x100000 + uint64(th.ID())<<24
		for i := 0; i < n; i++ {
			th.Write(base+uint64(i&4095)*8, 8, pc)
		}
	})
	return col
}

// benchCollectorContended measures the collection hot path under
// contention. The async variant exercises the parallel flush pipeline; the
// sync variant compresses on the application threads. A non-nil registry
// m is the configuration every sword.NewSession runs with.
func benchCollectorContended(synchronous bool, m *obs.Metrics) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		col := collectContended(b.N, rt.Config{Synchronous: synchronous, Obs: m})
		b.StopTimer()
		b.ReportMetric(float64(contendedThreads*b.N)/b.Elapsed().Seconds(), "events/s")
		if err := col.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCollectorHotPath measures the uncontended single-thread append.
func benchCollectorHotPath(b *testing.B) {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{})
	rtm := omp.New(omp.WithTool(col))
	pc := pcreg.Site("bench:hotpath")
	b.ReportAllocs()
	b.ResetTimer()
	rtm.Parallel(1, func(th *omp.Thread) {
		for i := 0; i < b.N; i++ {
			th.Write(0x100000+uint64(i&4095)*8, 8, pc)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	if err := col.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchEncoder measures trace.Encoder alone on b.N accesses from next,
// ending each buffer at the collector's default 25,000 events the way a
// flush does (Len, Bytes, Reset). The shapes are the trace package's
// BenchmarkEncoderStrided and BenchmarkEncoderScattered.
func benchEncoder(next func(i int) (addr uint64, write bool, pc uint64)) func(b *testing.B) {
	return func(b *testing.B) {
		var enc trace.Encoder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			addr, write, pc := next(i)
			enc.Access(addr, 8, write, false, pc)
			if enc.Events() >= rt.DefaultMaxEvents {
				enc.Len()
				enc.Bytes()
				enc.Reset()
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	}
}

// encoderStrided is lulesh-shaped: three interleaved streams per loop
// iteration (read xd[i], read x[i], write x[i]) that all coalesce into runs.
func encoderStrided(i int) (uint64, bool, uint64) {
	k := uint64(i/3) % 4096
	switch i % 3 {
	case 0:
		return 0x100000 + k*8, false, 11
	case 1:
		return 0x200000 + k*8, false, 12
	default:
		return 0x200000 + k*8, true, 12
	}
}

// encoderScattered is c_fft-shaped: each butterfly touches i+o and j+o
// through one site, so a stream alternates between two addresses, never
// repeats its delta, and every access is encoded eagerly.
func encoderScattered(i int) (uint64, bool, uint64) {
	const span = 512
	k := uint64(i/4) % 2048
	addr := 0x100000 + ((k/span)*2*span+k%span)*8
	if i%2 == 1 {
		addr += span * 8
	}
	return addr, i%4 >= 2, 21
}

// benchCollectorAffine measures the collection cost of one access issued
// through the affine capture API (Thread.ForAffine), per lane:
//
//   - certified: static filter on, provable static schedule — the access
//     is dropped at collection time, the fast path the filter buys;
//   - uncertified: static filter on, but a dynamic schedule voids the
//     proof — the capture API records through the normal tool path;
//   - nofilter: static filter off — the certificate hook declines and
//     every access is recorded exactly as without the feature.
func benchCollectorAffine(lane string) func(b *testing.B) {
	return func(b *testing.B) {
		const n = 4096
		store := trace.NewMemStore()
		col := rt.New(store, rt.Config{MaxEvents: 4096, Synchronous: true,
			StaticFilter: lane != "nofilter"})
		rtm := omp.New(omp.WithTool(col))
		arr, err := memsim.NewSpace(nil).AllocF64(n)
		if err != nil {
			b.Fatal(err)
		}
		loop := omp.NewAffineLoop()
		wr := loop.WriteF64(arr, 1, 0, pcreg.Site("bench:affine:"+lane))
		var opts omp.ForOpts
		if lane == "uncertified" {
			opts.Schedule = omp.ScheduleDynamic
			opts.Chunk = 64
		}
		b.ReportAllocs()
		b.ResetTimer()
		rtm.Parallel(1, func(th *omp.Thread) {
			for done := 0; done < b.N; done += n {
				th.ForAffineOpt(loop, 0, n, opts, func(it *omp.AffineIter) {
					it.StoreF64(wr, 1)
				})
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		if err := col.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCompress measures one codec on trace-shaped data (repetitive tags,
// small varint deltas) — the block the collector flushes.
func benchCompress(c compress.Codec) func(b *testing.B) {
	return func(b *testing.B) {
		src := make([]byte, 0, 75000)
		for i := 0; i < 25000; i++ {
			src = append(src, 0x9c, byte(8+i%3), byte(i%5+1))
		}
		var dst []byte
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = c.Compress(dst[:0], src)
		}
	}
}

// stridedTrace collects a DRB-style strided workload into a memory store:
// threads interleave disjoint strided writes over a shared region (heavy
// solver traffic, all negative) across barrier-separated rounds that repeat
// the same shapes (memo fodder), plus one genuinely racy site re-confirmed
// every round (suppression fodder). Two trailing read-only rounds sweep a
// disjoint region: every pair of those intervals is provably race-free
// from its unit summary alone — the pair pre-filter's fodder.
func stridedTrace(tb testing.TB, threads, iters, rounds int) trace.Store {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true})
	rtm := omp.New(omp.WithTool(col))
	rtm.Parallel(threads, func(th *omp.Thread) {
		pc := uint64(0x40 + th.ID())
		for round := 0; round < rounds; round++ {
			for i := th.ID(); i < iters; i += threads {
				th.Write(0x200000+uint64(i)*8, 8, pc)
			}
			th.Write(0x200000+uint64(round)*8, 8, 0x80)
			th.Barrier()
		}
		for round := 0; round < 2; round++ {
			for i := th.ID(); i < iters; i += threads {
				th.Read(0x400000+uint64(i)*8, 8, pc)
			}
			th.Barrier()
		}
	})
	if err := col.Close(); err != nil {
		tb.Fatal(err)
	}
	return store
}

// benchAnalyzerTreeBuild measures the tree-construction phase in
// isolation: strided inserts from four interleaved threads followed by
// compaction, the exact shape enumeratePairs receives.
func benchAnalyzerTreeBuild(b *testing.B) {
	b.ReportAllocs()
	inserts := 0
	for i := 0; i < b.N; i++ {
		var t itree.Tree
		for th := 0; th < 4; th++ {
			acc := itree.Access{Width: 8, Write: th%2 == 0, PC: uint64(100 + th)}
			for k := 0; k < 2048; k++ {
				acc.Addr = 0x10000 + uint64(th)*8 + uint64(k)*32
				t.Insert(acc)
				inserts++
			}
		}
		t.Compact()
	}
	b.ReportMetric(float64(inserts)/b.Elapsed().Seconds(), "inserts/s")
}

// benchAnalyzerPairComparison measures the pair-comparison phase on a
// strided DRB-style trace: one collection, repeated analyses. The reported
// solver-effort metrics are the engine's headline — requested decisions
// split into real solves, memo hits, and suppressed pairs.
func benchAnalyzerPairComparison(b *testing.B) {
	store := stridedTrace(b, 4, 2048, 8)
	var st *sword.RunStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, st, err = sword.AnalyzeStore(store)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.Analysis.NodeComparisons), "node_comparisons")
	b.ReportMetric(float64(st.Analysis.SolverCalls), "solver_calls")
	b.ReportMetric(float64(st.SolverCacheHits), "solver_cache_hits")
	b.ReportMetric(float64(st.SitesSuppressed), "sites_suppressed")
	b.ReportMetric(float64(st.Analysis.PairsPrefiltered), "pairs_prefiltered")
}

// benchAnalyzerEndToEnd measures a full sword run — collection plus both
// offline legs — on a named evaluation workload, through the same harness
// path the experiments use.
func benchAnalyzerEndToEnd(name string) func(b *testing.B) {
	return func(b *testing.B) {
		wl, err := workloads.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(wl, Sword, Options{Threads: 4, NodeBudget: -1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MicroBenches runs the performance micro-benchmark suite programmatically
// (testing.Benchmark, default 1s per benchmark) and returns benchmark name
// → result. It covers the hot paths the perf work targets: contended
// multi-slot collection (async pipeline vs synchronous flushing), the
// uncontended append, the affine capture path in its three filter lanes
// (certified drop, uncertified record, filter off), the event encoder on a
// coalescing and a non-coalescing access shape, and each flush codec.
func MicroBenches() map[string]BenchResult {
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"CollectorContended", benchCollectorContended(false, nil)},
		{"CollectorContendedObs", benchCollectorContended(false, obs.New())},
		{"CollectorContendedSync", benchCollectorContended(true, nil)},
		{"CollectorHotPath", benchCollectorHotPath},
		{"CollectorAffine/certified", benchCollectorAffine("certified")},
		{"CollectorAffine/uncertified", benchCollectorAffine("uncertified")},
		{"CollectorAffine/nofilter", benchCollectorAffine("nofilter")},
		{"EncoderStrided", benchEncoder(encoderStrided)},
		{"EncoderScattered", benchEncoder(encoderScattered)},
		{"Compress/raw", benchCompress(compress.Raw{})},
		{"Compress/lzss", benchCompress(compress.LZSS{})},
		{"Compress/flate", benchCompress(compress.NewFlate())},
		{"AnalyzerTreeBuild", benchAnalyzerTreeBuild},
		{"AnalyzerPairComparison", benchAnalyzerPairComparison},
		{"AnalyzerEndToEnd/antidep1-orig-yes", benchAnalyzerEndToEnd("antidep1-orig-yes")},
		{"AnalyzerEndToEnd/c_jacobi", benchAnalyzerEndToEnd("c_jacobi")},
	}
	out := make(map[string]BenchResult, len(benches))
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		res := BenchResult{
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
		}
		for k, v := range r.Extra {
			if k == "events/s" {
				res.EventsPerS = v
				continue
			}
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64, len(r.Extra))
			}
			res.Metrics[k] = v
		}
		out[bench.name] = res
	}
	return out
}

// WriteMicroBenches runs MicroBenches and writes the results to path as
// indented JSON (keys sorted), the BENCH_*.json artifact format.
func WriteMicroBenches(path string) error {
	data, err := json.MarshalIndent(MicroBenches(), "", "  ")
	if err != nil {
		return fmt.Errorf("harness: marshal bench results: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
