// Benchmarks regenerating the paper's evaluation artifacts, one target per
// table and figure (see DESIGN.md's per-experiment index), plus ablations
// for the design choices Section III calls out: buffer size, compression
// codec, constraint solving, interval-tree coalescing, and offline
// parallelism. Run with:
//
//	go test -bench=. -benchmem
package sword_test

import (
	"fmt"
	"testing"

	"sword"
	"sword/internal/compress"
	"sword/internal/core"
	"sword/internal/harness"
	"sword/internal/itree"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/rt"
	"sword/internal/trace"
	"sword/internal/workloads"
)

func mustWorkload(b *testing.B, name string) workloads.Workload {
	b.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func runOnce(b *testing.B, name string, tool harness.Tool, opts harness.Options) harness.Result {
	b.Helper()
	res, err := harness.Run(mustWorkload(b, name), tool, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig1HBMasking regenerates Figure 1: the two-schedule litmus
// under archer and sword.
func BenchmarkFig1HBMasking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := harness.ExpFig1()
		if len(out) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// BenchmarkTab1MetaCollection regenerates Table I's meta-data file.
func BenchmarkTab1MetaCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.ExpTab1()
	}
}

// BenchmarkFig2NestedRaces regenerates Figure 2's nested-region races.
func BenchmarkFig2NestedRaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.ExpFig2()
	}
}

// BenchmarkDRBSuite runs the full DataRaceBench matrix (§IV-A): every drb
// kernel under sword.
func BenchmarkDRBSuite(b *testing.B) {
	suite := workloads.BySuite("drb")
	races := 0
	for i := 0; i < b.N; i++ {
		races = 0
		for _, w := range suite {
			res, err := harness.Run(w, harness.Sword, harness.Options{Threads: 4, NodeBudget: -1})
			if err != nil {
				b.Fatal(err)
			}
			races += res.Races
		}
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkTable2OmpSCR runs the Table II detection per tool over the
// OmpSCR suite.
func BenchmarkTable2OmpSCR(b *testing.B) {
	suite := workloads.BySuite("ompscr")
	for _, tool := range []harness.Tool{harness.Archer, harness.Sword} {
		b.Run(tool.String(), func(b *testing.B) {
			races := 0
			for i := 0; i < b.N; i++ {
				races = 0
				for _, w := range suite {
					res, err := harness.Run(w, tool, harness.Options{Threads: 4, NodeBudget: -1})
					if err != nil {
						b.Fatal(err)
					}
					races += res.Races
				}
			}
			b.ReportMetric(float64(races), "races")
		})
	}
}

// BenchmarkFig6Overheads measures the dynamic-phase cost each tool adds on
// a representative OmpSCR kernel (c_md), the quantity Figure 6 geomeans.
func BenchmarkFig6Overheads(b *testing.B) {
	for _, tool := range harness.Tools {
		b.Run(tool.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, "c_md", tool, harness.Options{Threads: 4, NodeBudget: -1, SkipOffline: true})
			}
		})
	}
}

// BenchmarkTable3Offline measures sword's offline phase on the OmpSCR
// kernel with the largest trace, single-worker (OA) vs parallel (MT).
func BenchmarkTable3Offline(b *testing.B) {
	w := mustWorkload(b, "c_fft")
	store := trace.NewMemStore()
	res, err := harness.Run(w, harness.Sword, harness.Options{Threads: 4, NodeBudget: -1, Store: store, SkipOffline: true})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	for _, workers := range []int{1, 0} {
		name := "MT"
		if workers == 1 {
			name = "OA"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.New(store, core.Config{Workers: workers}).Analyze(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4HPC runs each HPC benchmark under sword end to end — the
// detection column of Table IV.
func BenchmarkTable4HPC(b *testing.B) {
	for _, row := range harness.HPCBenchmarks()[:4] {
		b.Run(row.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runOnce(b, row.Name, harness.Sword, harness.Options{Threads: 4, Size: row.Size})
				if res.OOM {
					b.Fatal("unexpected OOM")
				}
			}
		})
	}
}

// BenchmarkFig7Threads sweeps thread counts on the AMG analogue under
// sword's dynamic phase — Figure 7's scaling axis.
func BenchmarkFig7Threads(b *testing.B) {
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("t%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, "amg", harness.Sword, harness.Options{Threads: threads, Size: 10, NodeBudget: -1, SkipOffline: true})
			}
		})
	}
}

// BenchmarkFig7LULESH measures sword's worst case: very many small
// regions, dominating log collection (Figure 7c).
func BenchmarkFig7LULESH(b *testing.B) {
	for _, tool := range []harness.Tool{harness.Archer, harness.Sword} {
		b.Run(tool.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, "lulesh", tool, harness.Options{Threads: 4, Size: 60, NodeBudget: -1, SkipOffline: true})
			}
		})
	}
}

// BenchmarkFig8AMGSizes sweeps the AMG input size under sword — the
// bounded-memory axis of Figure 8.
func BenchmarkFig8AMGSizes(b *testing.B) {
	for _, size := range []int{10, 20, 30} {
		b.Run(fmt.Sprintf("%dcubed", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, "amg", harness.Sword, harness.Options{Threads: 4, Size: size, NodeBudget: -1, SkipOffline: true})
			}
		})
	}
}

// BenchmarkTable5EndToEnd measures sword's full pipeline (collection plus
// offline analysis) on HPCCG — a Table V column.
func BenchmarkTable5EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runOnce(b, "hpccg", harness.Sword, harness.Options{Threads: 4, NodeBudget: -1})
		if res.Races != 1 {
			b.Fatalf("races = %d", res.Races)
		}
	}
}

// --- Ablations (DESIGN.md E-ABL) ---

// benchCollect runs a fixed access pattern through the collector with the
// given configuration and reports the trace volume.
func benchCollect(b *testing.B, cfg rt.Config) {
	b.Helper()
	pc := pcreg.Site("bench:ablation")
	b.ReportAllocs()
	var raw, comp uint64
	for i := 0; i < b.N; i++ {
		store := trace.NewMemStore()
		col := rt.New(store, cfg)
		rtm := omp.New(omp.WithTool(col))
		space := memsim.NewSpace(nil)
		arr, _ := space.AllocF64(1 << 14)
		rtm.Parallel(4, func(th *omp.Thread) {
			for rep := 0; rep < 8; rep++ {
				th.For(0, 1<<14, func(j int) {
					th.StoreF64(arr, j, 1, pc)
				})
			}
		})
		if err := col.Close(); err != nil {
			b.Fatal(err)
		}
		st := col.Stats()
		raw, comp = st.RawBytes, st.CompressedBytes
	}
	if comp > 0 {
		b.ReportMetric(float64(raw)/float64(comp), "ratio")
	}
}

// BenchmarkAblationBufferSize sweeps the per-thread buffer bound (the
// paper's 25,000-event sweet spot).
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, events := range []int{1000, 5000, 25000, 100000} {
		b.Run(fmt.Sprintf("events%d", events), func(b *testing.B) {
			benchCollect(b, rt.Config{MaxEvents: events})
		})
	}
}

// BenchmarkAblationCodec compares the flush codecs (the paper's
// LZO/Snappy/LZ4 bake-off).
func BenchmarkAblationCodec(b *testing.B) {
	for _, codec := range []compress.Codec{compress.Raw{}, compress.LZSS{}, compress.NewFlate()} {
		b.Run(codec.Name(), func(b *testing.B) {
			benchCollect(b, rt.Config{Codec: codec})
		})
	}
}

// BenchmarkAblationSolver compares the exact strided-interval solver
// against the bounding-box approximation on a strided workload.
func BenchmarkAblationSolver(b *testing.B) {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{})
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocI32(1 << 14)
	pc0, pc1 := pcreg.Site("ablation:lane0"), pcreg.Site("ablation:lane1")
	rtm.Parallel(2, func(th *omp.Thread) {
		pc := pc0
		if th.ID() == 1 {
			pc = pc1
		}
		for j := th.ID(); j < 1<<14; j += 2 {
			th.StoreI32(arr, j, 1, pc)
		}
	})
	if err := col.Close(); err != nil {
		b.Fatal(err)
	}
	for _, noSolver := range []bool{false, true} {
		name := "exact"
		if noSolver {
			name = "bbox"
		}
		b.Run(name, func(b *testing.B) {
			races := 0
			for i := 0; i < b.N; i++ {
				rep, err := core.New(store, core.Config{NoSolver: noSolver}).Analyze()
				if err != nil {
					b.Fatal(err)
				}
				races = rep.Len()
			}
			b.ReportMetric(float64(races), "races")
		})
	}
}

// BenchmarkAblationOfflineWorkers sweeps offline analysis parallelism on a
// multi-region trace.
func BenchmarkAblationOfflineWorkers(b *testing.B) {
	store := trace.NewMemStore()
	_, err := harness.Run(mustWorkload(b, "lulesh"), harness.Sword,
		harness.Options{Threads: 4, Size: 90, NodeBudget: -1, Store: store, SkipOffline: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(store, core.Config{Workers: workers}).Analyze(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectorHotPath measures the per-access cost of the dynamic
// phase in isolation — the number the paper's bounded-overhead claim
// rides on.
func BenchmarkCollectorHotPath(b *testing.B) {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{})
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(4096)
	pc := pcreg.Site("bench:hotpath")
	b.ReportAllocs()
	rtm.Parallel(1, func(th *omp.Thread) {
		for i := 0; i < b.N; i++ {
			th.StoreF64(arr, i&4095, 1, pc)
		}
	})
	b.StopTimer()
	col.Close()
}

// BenchmarkCollectorContended measures the multi-threaded collection hot
// path: 8 goroutines appending to distinct slots with frequent buffer
// fills, so the flush pipeline is under contention and any shared write on
// the per-event path shows up as cache-line traffic between the threads —
// that, not the lock-free slot lookup, is what the gap to
// BenchmarkCollectorHotPath measures. Reported as events/s (higher is
// better).
func BenchmarkCollectorContended(b *testing.B) {
	benchCollectorContended(b, nil)
}

// BenchmarkCollectorContendedObs is BenchmarkCollectorContended with a
// live metrics registry, the configuration every sword.NewSession runs
// with: observability must cost nothing measurable per event.
func BenchmarkCollectorContendedObs(b *testing.B) {
	benchCollectorContended(b, obs.New())
}

func benchCollectorContended(b *testing.B, m *obs.Metrics) {
	const threads = 8
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{MaxEvents: 4096, Obs: m})
	rtm := omp.New(omp.WithTool(col))
	pc := pcreg.Site("bench:contended")
	b.ReportAllocs()
	b.ResetTimer()
	rtm.Parallel(threads, func(th *omp.Thread) {
		base := 0x100000 + uint64(th.ID())<<24
		for i := 0; i < b.N; i++ {
			th.Write(base+uint64(i&4095)*8, 8, pc)
		}
	})
	b.StopTimer()
	if err := col.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(threads*b.N)/b.Elapsed().Seconds(), "events/s")
}

// --- Analyzer-phase family: the comparison-engine overhaul's numbers ---

// BenchmarkAnalyzerTreeBuild measures interval-tree construction in
// isolation: strided inserts from four interleaved lanes plus compaction,
// the exact input shape pair enumeration receives.
func BenchmarkAnalyzerTreeBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var t itree.Tree
		for th := 0; th < 4; th++ {
			acc := itree.Access{Width: 8, Write: th%2 == 0, PC: uint64(100 + th)}
			for k := 0; k < 2048; k++ {
				acc.Addr = 0x10000 + uint64(th)*8 + uint64(k)*32
				t.Insert(acc)
			}
		}
		t.Compact()
	}
}

// analyzerStridedStore collects the strided DRB-style trace the
// pair-comparison benchmarks analyze: interleaved disjoint strides (heavy
// negative solver traffic), barrier rounds repeating the same shapes (memo
// fodder), and one racy site re-confirmed every round (suppression fodder).
func analyzerStridedStore(b *testing.B) trace.Store {
	b.Helper()
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{Synchronous: true})
	rtm := omp.New(omp.WithTool(col))
	rtm.Parallel(4, func(th *omp.Thread) {
		pc := pcreg.Site(fmt.Sprintf("analyzer:lane%d", th.ID()))
		tail := pcreg.Site("analyzer:tail")
		for round := 0; round < 8; round++ {
			for i := th.ID(); i < 2048; i += 4 {
				th.Write(0x200000+uint64(i)*8, 8, pc)
			}
			th.Write(0x200000+uint64(round)*8, 8, tail)
			th.Barrier()
		}
	})
	if err := col.Close(); err != nil {
		b.Fatal(err)
	}
	return store
}

// BenchmarkAnalyzerPairComparison measures the pair-comparison phase on a
// strided workload under both engines: the merge sweep with memo and
// suppression against the legacy tree-probing engine. The sweep leg reports
// the solver-effort split — requested decisions versus actual solves.
func BenchmarkAnalyzerPairComparison(b *testing.B) {
	store := analyzerStridedStore(b)
	b.Run("sweep", func(b *testing.B) {
		var st *sword.RunStats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = sword.AnalyzeStore(store)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Analysis.SolverCalls), "solver_calls")
		b.ReportMetric(float64(st.SolverCacheHits), "solver_cache_hits")
		b.ReportMetric(float64(st.SitesSuppressed), "sites_suppressed")
	})
	b.Run("probe", func(b *testing.B) {
		var calls uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := core.New(store, core.Config{ProbeEngine: true}).Analyze()
			if err != nil {
				b.Fatal(err)
			}
			calls = rep.Stats.SolverCalls
		}
		b.ReportMetric(float64(calls), "solver_calls")
	})
}

// BenchmarkAnalyzerEndToEnd measures full sword runs — collection plus
// both offline legs — on representative DRB and OmpSCR workloads.
func BenchmarkAnalyzerEndToEnd(b *testing.B) {
	for _, name := range []string{"antidep1-orig-yes", "nowait-orig-yes", "c_jacobi", "c_md"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runOnce(b, name, harness.Sword, harness.Options{Threads: 4, NodeBudget: -1})
			}
		})
	}
}

// BenchmarkAblationCompact compares offline analysis with and without the
// interval-tree compaction pass on a fragmentation-heavy trace
// (descending sweeps defeat insert-time coalescing).
func BenchmarkAblationCompact(b *testing.B) {
	store := trace.NewMemStore()
	col := rt.New(store, rt.Config{})
	rtm := omp.New(omp.WithTool(col))
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(1 << 13)
	pc := pcreg.Site("ablation:descending")
	rtm.Parallel(4, func(th *omp.Thread) {
		th.For(0, 1<<13, func(i int) {
			j := (1 << 13) - 1 - i // descending order per chunk
			th.StoreF64(arr, j, 1, pc)
		})
	})
	if err := col.Close(); err != nil {
		b.Fatal(err)
	}
	for _, noCompact := range []bool{false, true} {
		name := "compact"
		if noCompact {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				rep, err := core.New(store, core.Config{NoCompact: noCompact}).Analyze()
				if err != nil {
					b.Fatal(err)
				}
				nodes = rep.Stats.TreeNodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}
