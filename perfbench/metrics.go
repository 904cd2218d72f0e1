package main

import "slices"

// metric is one reported figure. The catalog below is the single list the
// output is built from; the self-test checks it against BENCHMARK.json.
type metric struct {
	name string
	unit string
}

// endToEnd are the figures a user of the pipeline sees, reported by the
// untraced run. Every one applies to every workload. The timings are given
// relative to the uninstrumented program, as the median of a timing over
// the median baseline time of the same run (see relative): the shared
// hosts the benchmark runs on change speed by more than a quarter over
// minutes, and the baseline, timed in the same run, moves with them.
var endToEnd = []metric{
	{"slowdown", "x"},
	{"analyze_oa_x", "x"},
	{"analyze_mt_x", "x"},
	{"report_x", "x"},
	{"report_lag_x", "x"},
	{"first_race_x", "x"},
	{"trace_bytes", "bytes"},
	{"collect_heap_peak_bytes", "bytes"},
	{"analyze_heap_peak_bytes", "bytes"},
	{"setup_s", "s"},
}

// relative names the timing each relative end-to-end figure divides by
// omp.baseline_ms. On the post-mortem workloads the final report is the
// parallel analysis's, so report_ms is collect_ms + analyze_mt_ms,
// report_lag_ms is analyze_mt_ms, and first_race_ms is report_ms (the
// first verdict arrives with the report; on the race-free lulesh that
// verdict is "no race").
var relative = map[string]string{
	"slowdown":     "collect_ms",
	"analyze_oa_x": "analyze_oa_ms",
	"analyze_mt_x": "analyze_mt_ms",
	"report_x":     "report_ms",
	"report_lag_x": "report_lag_ms",
	"first_race_x": "first_race_ms",
}

// timings are the figures whose medians in ms are printed beside the
// metrics: the baseline and the numerators of the relative figures.
var timings = []string{"omp.baseline_ms", "collect_ms", "analyze_oa_ms", "analyze_mt_ms", "report_ms", "report_lag_ms", "first_race_ms"}

// overheadOf are the end-to-end timings the traced run reports twice, from
// its traced and its untraced iterations, with their difference as the
// tracing overhead.
var overheadOf = []string{"collect_ms", "analyze_oa_ms", "analyze_mt_ms", "report_ms"}

// spanNames are the spans the traced run records around calls into the
// layers; each gets a self-time figure.
var spanNames = []string{
	"iteration",
	"omp.baseline",
	"rt.collect", "rt.program", "rt.close",
	"stream.live",
	"trace.decode",
	"core.analyze_oa", "core.analyze_mt",
	"report.check",
}

// perLayer are the figures of the traced run: one layer each, read from
// the obs snapshots the program keeps and from the benchmark's spans.
var perLayer = func() []metric {
	ms := []metric{
		{"omp.baseline_ms", "ms"},
		{"rt.overhead_ms", "ms"},
		{"rt.ns_per_event", "ns"},
		{"rt.close_ms", "ms"},
		{"rt.events", "count"},
		{"rt.flushes", "count"},
		{"rt.fragments", "count"},
		{"compress.compress_ms", "ms"},
		{"compress.ratio", "ratio"},
		{"trace.write_ms", "ms"},
		{"trace.read_ms", "ms"},
		{"trace.decode_ms", "ms"},
		{"trace.decode_events_per_s", "1/s"},
		{"core.structure_ms", "ms"},
		{"core.trees_ms", "ms"},
		{"core.compare_ms", "ms"},
		{"core.interval_pairs", "count"},
		{"core.pairs_prefiltered", "count"},
		{"core.tree_nodes", "count"},
		{"itree.nodes_per_access", "ratio"},
		{"core.node_comparisons", "count"},
		{"core.solver_calls", "count"},
		{"ilp.memo_hit_ratio", "ratio"},
		{"ilp.ns_per_comparison", "ns"},
		{"stream.epochs_sealed", "count"},
		{"stream.rounds", "count"},
		{"stream.steps_per_round", "ratio"},
		{"stream.tail_retries", "count"},
		{"stream.frontier_bytes_peak", "bytes"},
		{"mt.speedup", "x"},
	}
	for _, s := range spanNames {
		ms = append(ms, metric{"self_ms." + s, "ms"})
	}
	for _, m := range overheadOf {
		ms = append(ms,
			metric{"traced." + m, "ms"},
			metric{"untraced." + m, "ms"},
			metric{"tracing_overhead." + m, "ms"})
	}
	return ms
}()

// samples collects per-iteration values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// median returns the median of the named samples, 0 when there are none.
func (s samples) median(name string) float64 { return median(s[name]) }

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := slices.Clone(vs)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns the first and third quartile of vs, by the nearest
// lower rank; 0, 0 when vs is empty.
func quartiles(vs []float64) (q1, q3 float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	c := slices.Clone(vs)
	slices.Sort(c)
	n := len(c) - 1
	return c[n/4], c[3*n/4]
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
