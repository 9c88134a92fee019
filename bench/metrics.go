package main

import (
	"math"

	"buanalysis/internal/stats"
)

// metric is one reported number: its name, unit and better direction.
// BENCHMARK.json declares the same names and units (bench_test.go
// checks both directions), plus a regression bound for each end-to-end
// metric.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports. Every workload
// reports every one of them and none can read 0, so a metric that only
// means something on one workload (request latency on serve, the error
// rate) is a per-layer metric instead.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"mean_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, named after the module
// whose calls they time or count. A layer a workload's trace cannot see
// reads 0 on that workload.
var perLayer = []metric{
	{"req_per_s", "1/s", "higher"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"error_rate", "fraction", "lower"},
	{"bumdp.compile_s", "s", "lower"},
	{"bumdp.compiles", "count", "lower"},
	{"bumdp.states", "count", "lower"},
	{"mdp.probes", "count", "lower"},
	{"mdp.opt_sweeps", "count", "lower"},
	{"mdp.eval_sweeps", "count", "lower"},
	{"mdp.max_probe_sweeps", "count", "lower"},
	{"mdp.objective_s", "s", "lower"},
	{"mdp.ns_per_state_sweep", "ns", "lower"},
	{"mdp.stationary_s", "s", "lower"},
	{"core.sweep_s", "s", "lower"},
	{"core.idle_frac", "fraction", "lower"},
	{"bitcoin.solve_s", "s", "lower"},
	{"expstore.encode_s", "s", "lower"},
	{"expstore.put_s", "s", "lower"},
	{"expstore.hits", "count", "higher"},
	{"expstore.misses", "count", "lower"},
	{"expstore.disk_hits", "count", "lower"},
	{"buserve.hit_p50_ms", "ms", "lower"},
	{"buserve.hit_p99_ms", "ms", "lower"},
	{"buserve.miss_p50_ms", "ms", "lower"},
	{"buserve.miss_solve_ms", "ms", "lower"},
	{"buserve.bytes_per_req", "bytes", "lower"},
	{"verify.check_s", "s", "lower"},
	{"verify.checks", "count", "lower"},
	{"verify.rejects", "count", "lower"},
	{"jobqueue.wait_s", "s", "lower"},
	{"jobqueue.leases", "count", "lower"},
	{"jobqueue.retries", "count", "lower"},
	{"farm.solve_s", "s", "lower"},
	{"farm.dispatch_s", "s", "lower"},
	{"farm.other_s", "s", "lower"},
	{"trace_overhead_frac", "fraction", "lower"},
}

// median is the 0.5 quantile (0 for an empty sample).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, p float64) float64 {
	q, _ := stats.Quantile(xs, p)
	return q
}

// medianOf collects one field across repetitions and returns its median.
func medianOf[T any](reps []T, f func(T) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// medianLayers is the per-metric median of the repetitions' per-layer
// maps.
func medianLayers(reps []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = medianOf(reps, func(l map[string]float64) float64 { return l[m.name] })
	}
	return out
}

// finite replaces a non-finite value (which JSON cannot carry) with 0
// and reports whether it had to.
func finite(v float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}
