package harness

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"sword"
	"sword/internal/obs"
	"sword/internal/rt"
)

// TestAnalyzerBenchSmoke is the make-check regression guard for the
// comparison engine: on the strided DRB-style workload the analyzer
// benchmarks use, the solver memo and race-site suppression together must
// answer at least half of the requested strided-intersection decisions
// without invoking the solver — the engine's acceptance criterion. It runs
// in short mode so the guard is part of every check.
func TestAnalyzerBenchSmoke(t *testing.T) {
	store := stridedTrace(t, 4, 2048, 8)
	rep, st, err := sword.AnalyzeStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() == 0 {
		t.Fatal("strided workload's engineered race not reported")
	}
	if st.SolverCacheHits == 0 {
		t.Fatal("no solver-memo hits on a shape-repeating workload")
	}
	if st.SitesSuppressed == 0 {
		t.Fatal("no suppressed pairs despite a racy site repeating across rounds")
	}
	if st.Analysis.SolverCalls != st.SolverCacheMisses {
		t.Fatalf("solver calls (%d) != memo misses (%d)",
			st.Analysis.SolverCalls, st.SolverCacheMisses)
	}
	requested := st.SolverCacheHits + st.SolverCacheMisses + st.SitesSuppressed
	if st.Analysis.SolverCalls*2 > requested {
		t.Fatalf("memo+suppression saved too little: %d solves for %d requested decisions",
			st.Analysis.SolverCalls, requested)
	}
	if st.Analysis.PairsPrefiltered == 0 {
		t.Fatal("no pairs pre-filtered despite the workload's read-only rounds")
	}
}

// TestAnalyzerAllocSmoke is the make-check guard for the analyzer
// front-end's allocation behavior: one full analysis of the strided
// workload must stay within an allocation budget sized for the arena run
// builder. The red-black tree path allocated one node per coalesced run
// plus per-insert rebalancing garbage, an order of magnitude above this
// ceiling — a regression that reintroduces per-access allocation trips the
// bound immediately.
func TestAnalyzerAllocSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is distorted under short/race harness runs")
	}
	store := stridedTrace(t, 4, 2048, 8)
	if _, _, err := sword.AnalyzeStore(store); err != nil {
		t.Fatal(err) // warm pools and lazy tables before measuring
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := sword.AnalyzeStore(store); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 4000
	if allocs > ceiling {
		t.Fatalf("analysis allocates %.0f objects per run, budget %d", allocs, ceiling)
	}
}

// TestCollectorObsCostSmoke is the make-check guard for the cost rule
// (obs package doc): a live metrics registry must cost nothing measurable
// on the collector's per-event path. It times the contended collection
// shape with and without a registry, interleaved, and fails if the ratio
// of the median ns/op exceeds 1.25. A shared counter bumped on every
// append costs about 2x on this shape, far outside the bound; single runs
// spread by ±20% on a loaded host, which the medians of 21 absorb.
func TestCollectorObsCostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard: distorted under short/race harness runs")
	}
	const (
		events = 400_000 // per thread and run
		runs   = 21
		bound  = 1.25
	)
	nsPerOp := func(m *obs.Metrics) float64 {
		runtime.GC() // each run starts from the same heap
		start := time.Now()
		col := collectContended(events, rt.Config{Obs: m})
		elapsed := time.Since(start)
		if err := col.Close(); err != nil {
			t.Fatal(err)
		}
		return float64(elapsed.Nanoseconds()) / events
	}
	nsPerOp(nil) // warm pools and the pc table
	var plain, withObs []float64
	for i := 0; i < runs; i++ {
		if i%2 == 0 { // alternate the order so neither side always runs first
			plain = append(plain, nsPerOp(nil))
			withObs = append(withObs, nsPerOp(obs.New()))
		} else {
			withObs = append(withObs, nsPerOp(obs.New()))
			plain = append(plain, nsPerOp(nil))
		}
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	p, o := median(plain), median(withObs)
	t.Logf("median ns/op: %.0f without a registry, %.0f with one (%.2fx)", p, o, o/p)
	if o/p > bound {
		t.Fatalf("live registry costs %.2fx on the contended collector (%.0f vs %.0f ns/op), bound %.2fx",
			o/p, o, p, bound)
	}
}

// Standard `go test -bench` entry points for the analyzer benchmarks the
// suite otherwise runs programmatically (MicroBenches) — these are what
// `make profile` attaches the CPU and heap profilers to.
func BenchmarkAnalyzerEndToEnd(b *testing.B) {
	b.Run("c_jacobi", benchAnalyzerEndToEnd("c_jacobi"))
	b.Run("antidep1-orig-yes", benchAnalyzerEndToEnd("antidep1-orig-yes"))
}

func BenchmarkAnalyzerPairComparison(b *testing.B) {
	benchAnalyzerPairComparison(b)
}
