package main

import (
	"math"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json: its name, unit and which
// direction is better. bound is the share of the parent's median by which
// an end-to-end metric may worsen before a change counts as a regression;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// e2eMetrics are measured with tracing off, on every workload. An
// operation is one campaign (fi-*), one sweep of every model under every
// format (sweep-formats) or one job from Submit to report in hand
// (service); ops_per_s counts the workload's unit of work: injections,
// images or jobs per second.
//
// The bounds follow the spreads measured on the shared 2-vCPU host the
// benchmark was defined on: up to 0.17 for the host-scaled times and for
// the service's peak RSS, which grows with the number of jobs a window
// completes (see README.md, "Baseline").
var e2eMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// layerKinds are the nn module kinds whose self time the traced run
// attributes (containers and embeddings are left out).
var layerKinds = []string{"conv", "linear", "attention", "batchnorm", "layernorm", "activation", "pool"}

// sweepModels and sweepFormats span the sweep-formats workload; the first
// seven formats run through fused kernels, the last three through their
// bespoke Emulate paths.
var (
	sweepModels  = []string{"resnet_s", "vit_tiny"}
	sweepFormats = []string{"fp16", "bf16", "fp8_e4m3", "fxp16", "int8", "bfp_e5m5", "afp_e5m2", "posit8", "lns8", "nf4"}
)

// layerMetrics are reported by the traced run only, on every workload; a
// metric a workload does not exercise reads 0.
var layerMetrics = func() []metricSpec {
	m := []metricSpec{
		{"dataset.synth_s", "s", "lower", 0},
		{"zoo.load_s", "s", "lower", 0},
		{"goldeneye.wrap_s", "s", "lower", 0},
		{"server.boot_s", "s", "lower", 0},

		{"campaign.calls", "count", "higher", 0},
		{"campaign.wall_s_p50", "s", "lower", 0},
		{"campaign.build_s", "s", "lower", 0},
		{"campaign.setup_s_p50", "s", "lower", 0},
		{"campaign.loop_s_p50", "s", "lower", 0},
		{"campaign.setup_share", "ratio", "lower", 0},
		{"campaign.forward_passes", "count", "lower", 0},
		{"campaign.batch_occupancy_mean", "ratio", "higher", 0},
	}
	for _, k := range layerKinds {
		m = append(m, metricSpec{"nn." + k + "_s", "s", "lower", 0})
	}
	m = append(m, []metricSpec{
		{"nn.prefix_share", "ratio", "lower", 0},

		{"tensor.matmul_calls", "count", "lower", 0},
		{"tensor.matmul_s", "s", "lower", 0},
		{"tensor.matmul_gflops", "GFLOP/s", "higher", 0},
		{"tensor.matmul_share", "ratio", "lower", 0},
		{"tensor.im2col_calls", "count", "lower", 0},
		{"tensor.im2col_s", "s", "lower", 0},
		{"tensor.im2col_share", "ratio", "lower", 0},

		{"numfmt.emulate_calls", "count", "lower", 0},
		{"numfmt.elements", "count", "lower", 0},
		{"numfmt.fused_kernels", "count", "higher", 0},
		{"numfmt.generic_kernels", "count", "lower", 0},
		{"numfmt.bespoke_calls", "count", "lower", 0},
	}...)
	for _, model := range sweepModels {
		for _, f := range sweepFormats {
			m = append(m, metricSpec{"numfmt.overhead_ratio." + model + "." + f, "ratio", "lower", 0})
		}
	}
	return append(m, []metricSpec{
		{"detect.calibration_s", "s", "lower", 0},
		{"detect.detections", "count", "higher", 0},
		{"detect.recoveries", "count", "higher", 0},
		{"detect.false_positives", "count", "lower", 0},

		{"inject.injections", "count", "higher", 0},
		{"inject.mismatches", "count", "lower", 0},
		{"inject.nonfinite", "count", "lower", 0},
		{"inject.sdc_rate", "ratio", "lower", 0},

		{"sampling.fault_space", "count", "higher", 0},
		{"sampling.executed", "count", "lower", 0},
		{"sampling.pruned", "count", "higher", 0},
		{"sampling.skipped", "count", "higher", 0},
		{"sampling.executed_ratio", "ratio", "lower", 0},

		{"server.submit_s_p50", "s", "lower", 0},
		{"server.queue_wait_s_p50", "s", "lower", 0},
		{"server.exec_s_p50", "s", "lower", 0},
		{"server.fresh_latency_p50_s", "s", "lower", 0},
		{"server.sampled_latency_p50_s", "s", "lower", 0},
		{"server.hit_latency_p50_s", "s", "lower", 0},
		{"server.job_latency_p90_s", "s", "lower", 0},
		{"server.cache_hits", "count", "higher", 0},
		{"server.cache_misses", "count", "lower", 0},
		{"server.journal_records", "count", "lower", 0},
		{"server.rejected", "count", "lower", 0},
		{"client.retries", "count", "lower", 0},

		{"fleet.job_latency_p50_s", "s", "lower", 0},
		{"fleet.shards_done", "count", "higher", 0},
		{"fleet.reassigned", "count", "lower", 0},
		{"fleet.stolen", "count", "lower", 0},
		{"fleet.replays", "count", "lower", 0},
		{"fleet.node_shard_s_mean", "s", "lower", 0},

		{"runtime.cpu_s", "s", "lower", 0},
		{"runtime.cpu_util", "ratio", "higher", 0},
		{"runtime.alloc_mb", "MB", "lower", 0},
		{"runtime.gc_cycles", "count", "lower", 0},
		{"runtime.gc_pause_s", "s", "lower", 0},

		{"trace_overhead_pct", "%", "lower", 0},
	}...)
}()

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles(n=4), so the
// spreads this program prints match ones computed from its output with
// Python.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// CPython's exclusive-method arithmetic, clamp and (for tiny samples)
	// extrapolation included.
	n, ld := 4, len(s)
	at := func(i int) float64 {
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return at(1), median(s), at(3)
}

func mean(xs []float64) float64 {
	return ratio(sum(xs), float64(len(xs)))
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
