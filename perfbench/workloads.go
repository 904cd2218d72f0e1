package main

import (
	"fmt"
	"slices"
)

// team is the OpenMP team size of every workload. Two threads are the
// fewest that let the documented races manifest, and they keep the team
// within the two processors of the smallest machine the benchmark targets.
const team = 2

// spec is one benchmark workload: a bundled program at a fixed size, the
// analysis mode it is driven through, and the race set every iteration
// must reproduce. The programs are deterministic by construction: their
// inputs depend on the size alone, so the seed only orders the legs of an
// iteration and never changes what a leg computes.
type spec struct {
	name    string
	program string // name in the workloads registry
	size    int
	// smokeSize is the tiny size the self-test runs at.
	smokeSize int
	// live collects with live flush while AnalyzeLiveStore tails the
	// store, instead of analyzing after the program has ended.
	live bool
	// legs is the number of baseline/collection leg pairs per iteration.
	// Workloads whose collection is much cheaper than their analysis run
	// several, so collect_ms and slowdown get as many samples as the
	// analysis-dominated metrics.
	legs int
	// analyses is the number of OA and MT analysis pairs per iteration,
	// for the same reason: lulesh spends about as long on a leg pair as
	// on an analysis pair, so two of each give every timing, the
	// baseline included, the same number of samples.
	analyses int
	// setups is the number of set-ups per run, each an untimed single
	// pass of the pipeline sampling the heap peaks. amg's live heap peak
	// depends on how far the live analyzer lags, so its cheap passes are
	// sampled more often.
	setups int
	// races is the expected race set, as sorted site pairs (see sitePair).
	races []string
}

var specs = []spec{
	{
		// Many small parallel regions and ~11M access events: the rt hot
		// path, compression, trace encode/decode, tree building and
		// multi-region structure recovery, with almost no comparison work.
		name: "lulesh_postmortem", program: "lulesh", size: 1000, smokeSize: 6,
		legs: 2, analyses: 2, setups: 3,
	},
	{
		// One region with a small trace whose analysis is nearly all
		// pair comparison, solver calls and solver-memo hits.
		name: "fft_postmortem", program: "c_fft", size: 4096, smokeSize: 64,
		legs: 8, analyses: 1, setups: 3,
		races: []string{"write ompscr/c_fft.c:twiddle-init <-> write ompscr/c_fft.c:twiddle-init"},
	},
	{
		// Live detection: a commit per fragment in rt, epoch sealing in
		// stream and core.LiveAnalyzer, 14 races of which 10 only SWORD
		// finds.
		name: "amg_live", program: "amg", size: 40, smokeSize: 6, live: true,
		legs: 1, analyses: 1, setups: 25,
		races: amgRaces(),
	},
}

// amgRaces lists the 14 races of the AMG analogue: 4 setup-write/use races
// both tools report and 10 relax-write/relax-use races only SWORD sees.
func amgRaces() []string {
	var out []string
	for k := 0; k < 14; k++ {
		w, r := "setup-write", "use"
		if k >= 4 {
			w, r = "relax-write", "relax-use"
		}
		out = append(out, fmt.Sprintf("write hpc/amg.c:coeff%d-%s <-> read hpc/amg.c:coeff%d-%s", k, w, k, r))
	}
	slices.Sort(out)
	return out
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
