package main

import (
	"fmt"
	"math"
	"sort"
)

// decl is one metric the benchmark prints: its name and unit exactly as
// BENCHMARK.json declares them.
type decl struct{ name, unit string }

// endToEnd are printed by every untraced run, on every workload: what a
// caller of the library or the service sees.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"cold_ms_p50", "ms"},
	{"refactor_ms_p50", "ms"},
	{"solve_ms_p50", "ms"},
	{"solve_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_mb", "MB"},
	{"ok_rate", "fraction"},
}

// perLayer are printed by every traced run, on every workload. A layer a
// workload does not pass through reads 0; every such metric is a count or
// a fraction, never a time, so each time below is measured on every
// workload (see README.md for the per-workload meaning).
var perLayer = []decl{
	// Analysis, timed on the workload's new-pattern matrices.
	{"order.ms", "ms"},
	{"symbolic.ms", "ms"},
	{"blocks.ms", "ms"},
	{"sched.ms", "ms"},
	{"core.plan_ms", "ms"},
	// Plan counts of the refactored pattern.
	{"plan.flops", "flop"},
	{"plan.nnz_l", "count"},
	{"mapping.balance", "fraction"},
	// In-process replica of the refactored pattern under the workload's
	// plan options.
	{"local.cold_ms", "ms"},
	{"local.refactor_ms", "ms"},
	{"local.solve_ms", "ms"},
	{"numeric.reload_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"fanout.run_ms", "ms"},
	{"fanout.busy_frac", "fraction"},
	{"fanout.idle_frac", "fraction"},
	{"fanout.sched_frac", "fraction"},
	{"fanout.steals", "count"},
	{"fanout.efficiency", "fraction"},
	{"fanout.solve_ms", "ms"},
	{"kernels.bmod_ms", "ms"},
	{"kernels.bfac_ms", "ms"},
	{"kernels.bdiv_ms", "ms"},
	{"kernels.gflops", "GFlop/s"},
	{"kernels.peak_gflops", "GFlop/s"},
	{"kernels.rate_over_peak", "fraction"},
	// Front end: request parsing, and what the service adds over the
	// in-process replica.
	{"parse.json_ms", "ms"},
	{"parse.mm_ms", "ms"},
	{"front.cold_overhead_ms", "ms"},
	{"front.refactor_overhead_ms", "ms"},
	{"front.solve_overhead_ms", "ms"},
	{"front.cold_unattributed_frac", "fraction"},
	{"front.refactor_unattributed_frac", "fraction"},
	{"front.solve_unattributed_frac", "fraction"},
	{"front.solve_resp_bytes", "bytes"},
	{"server.batch_mean", "count"},
	{"plancache.hit_ratio", "fraction"},
	{"plancache.misses", "count"},
	{"plancache.evictions", "count"},
	{"admission.rejected", "count"},
	// Cluster data plane.
	{"wire.bytes_per_refactor", "bytes"},
	{"cluster.flop_balance", "fraction"},
	{"cluster.epochs_per_refactor", "count"},
	{"cluster.epoch_retries", "count"},
	{"cluster.local_fallbacks", "count"},
	{"trace.overhead_frac", "fraction"},
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect builds the metrics object from measured values: every declared
// name must be present and finite, and nothing undeclared may be.
func collect(decls []decl, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return out, nil
}

// minTail is how many samples must lie above a reported tail percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs in
// milliseconds. For a tail (q > 0.5) it refuses a sample with fewer than
// minTail values above the reported rank: such a tail is one or two
// outliers, not a percentile.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d above it, need %d", 100*q, n, n-rank, minTail)
	}
	return s[rank-1], nil
}

// median is the 0.5 nearest-rank percentile; it never refuses a
// non-empty sample.
func median(xs []float64) float64 {
	v, err := percentile(xs, 0.5)
	if err != nil {
		return math.NaN()
	}
	return v
}
