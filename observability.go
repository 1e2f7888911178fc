package goldeneye

import (
	"math"
	"time"

	"goldeneye/internal/dse"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/sampling"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/tensor"
)

// ForwardSecondsMetric is the per-layer forward-time histogram family; one
// histogram exists per layer, labeled `layer="<index>:<name>(<kind>)"`.
const ForwardSecondsMetric = "goldeneye_nn_forward_seconds"

// Campaign metric names (see internal/telemetry/README.md for the naming
// rules and the full inventory).
const (
	MetricCampaignInjections = "goldeneye_campaign_injections_total"
	MetricCampaignMismatches = "goldeneye_campaign_mismatches_total"
	MetricCampaignNonFinite  = "goldeneye_campaign_nonfinite_total"
	MetricCampaignDetected   = "goldeneye_campaign_detected_total"
	MetricCampaignPlanned    = "goldeneye_campaign_injections_planned"
	MetricCampaignLatency    = "goldeneye_campaign_injection_seconds"
	MetricCampaignShardTime  = "goldeneye_campaign_shard_seconds" // labeled worker="N"
	MetricCampaignShardWork  = "goldeneye_campaign_shard_injections_total"
	MetricCampaignAborted    = "goldeneye_campaign_aborted_total"
	MetricCampaignBatches    = "goldeneye_campaign_batches_total"
	MetricCampaignOccupancy  = "goldeneye_campaign_batch_occupancy"
	MetricCampaignRate       = "goldeneye_campaign_injections_per_second"

	// MetricCampaignPrefixRows counts injected-pass rows by where their pass
	// started, labeled outcome="reused|full": at the row's sample's cut in
	// the calibration's cut table, or at the network input (see
	// docs/PERFORMANCE.md §9).
	MetricCampaignPrefixRows = "goldeneye_campaign_prefix_rows_total"

	// Detection-pipeline instruments (populated when CampaignConfig.
	// Detectors is non-empty): per-detector detection counters and coverage
	// gauges are labeled detector="<name>". MetricCampaignCalibration times
	// the setup sweeps from the pipeline's build to the armed clean sweep's
	// seal; only campaigns that run the sweeps observe it — calibration-cache
	// misses and bypasses; a hit has none to time.
	MetricCampaignDetections  = "goldeneye_campaign_detections_total"
	MetricCampaignRecoveries  = "goldeneye_campaign_recoveries_total"
	MetricCampaignCoverage    = "goldeneye_campaign_detector_coverage"
	MetricCampaignCalibration = "goldeneye_campaign_calibration_seconds"

	// MetricCampaignCalibrationCache counts campaigns by where their clean
	// state came from, labeled outcome="hit|miss|bypass": the process-wide
	// calibration cache, setup sweeps whose result the cache then keeps, or
	// setup sweeps for a campaign the cache key cannot cover (see
	// docs/PERFORMANCE.md §13).
	MetricCampaignCalibrationCache = "goldeneye_campaign_calibration_cache_total"

	// Sampled-campaign instruments (populated when CampaignConfig.Sampling
	// is active): the estimator's dispatch accounting and interval width.
	MetricSamplingFaultSpace = "goldeneye_sampling_fault_space_total"
	MetricSamplingExecuted   = "goldeneye_sampling_executed_total"
	MetricSamplingPruned     = "goldeneye_sampling_pruned_total"
	MetricSamplingSkipped    = "goldeneye_sampling_skipped_total"
	MetricSamplingCIWidth    = "goldeneye_sampling_ci_width"
	MetricSamplingStopIndex  = "goldeneye_sampling_stop_index"
)

// occupancyBuckets bound the batch-occupancy histogram: the filled fraction
// of each batched pass (1.0 = every row carried a fault; lower values mean
// ragged tail groups or small shards wasting batch capacity).
var occupancyBuckets = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}

// RegisterRuntimeCollectors attaches snapshot-time bridges for the
// package-level counters maintained by the internal substrates (tensor
// kernel timings, numfmt quantization ops, dse exploration counters) to
// reg, so one exposition covers every layer of the stack. Registering the
// same registry twice is harmless: collector samples overwrite by name.
func RegisterRuntimeCollectors(reg *telemetry.Registry) {
	reg.RegisterCollector(func(set func(string, float64)) {
		ts := tensor.ReadOpStats()
		set("goldeneye_tensor_matmul_total", float64(ts.MatMulCalls))
		set("goldeneye_tensor_matmul_seconds_total", float64(ts.MatMulNanos)/1e9)
		set("goldeneye_tensor_matmul_flops_total", float64(ts.MatMulFLOPs))
		set("goldeneye_tensor_im2col_total", float64(ts.Im2ColCalls))
		set("goldeneye_tensor_im2col_seconds_total", float64(ts.Im2ColNanos)/1e9)

		nf := numfmt.ReadOpCounts()
		set("goldeneye_numfmt_quantize_total", float64(nf.Quantize))
		set("goldeneye_numfmt_dequantize_total", float64(nf.Dequantize))
		set("goldeneye_numfmt_emulate_total", float64(nf.Emulate))
		set("goldeneye_numfmt_elements_total", float64(nf.Elements))
		set("goldeneye_numfmt_fused_kernels_total", float64(nf.FusedKernels))
		set("goldeneye_numfmt_generic_kernels_total", float64(nf.GenericKernels))

		ds := dse.ReadSearchStats()
		set("goldeneye_dse_searches_total", float64(ds.Searches))
		set("goldeneye_dse_evaluations_total", float64(ds.Evaluations))
		set("goldeneye_dse_memo_hits_total", float64(ds.MemoHits))
		set("goldeneye_dse_accepted_total", float64(ds.Accepted))
	})
}

// layerTimingHooks returns a hook set recording per-layer forward time
// into reg's ForwardSecondsMetric histograms. Histogram lookups are cached
// per layer index; like nn.TimingHooks, the returned set carries per-pass
// state and must not be shared across concurrent contexts.
func layerTimingHooks(reg *telemetry.Registry) *nn.HookSet {
	cache := make(map[int]*telemetry.Histogram)
	return nn.TimingHooks(func(info nn.LayerInfo, d time.Duration) {
		h, ok := cache[info.Index]
		if !ok {
			h = reg.Histogram(telemetry.Label(ForwardSecondsMetric, "layer", info.String()),
				telemetry.DurationBuckets)
			cache[info.Index] = h
		}
		h.Observe(d.Seconds())
	})
}

// prefixRowCounters fetches MetricCampaignPrefixRows by outcome, indexed
// like prefixReused and prefixFull.
func prefixRowCounters(reg *telemetry.Registry) [2]*telemetry.Counter {
	var c [2]*telemetry.Counter
	for i, outcome := range [...]string{"reused", "full"} {
		c[i] = reg.Counter(telemetry.Label(MetricCampaignPrefixRows, "outcome", outcome))
	}
	return c
}

// Outcomes of a campaign's calibration-cache lookup, the outcome label of
// MetricCampaignCalibrationCache.
const (
	cacheHit = iota
	cacheMiss
	cacheBypass
)

var cacheOutcomes = [...]string{"hit", "miss", "bypass"}

// CalibrationCacheOutcome returns the outcome label ("hit", "miss" or
// "bypass") that reg counts for MetricCampaignCalibrationCache, the first
// in that order when a registry fed several campaigns, or "" when reg
// counts none.
func CalibrationCacheOutcome(reg *telemetry.Registry) string {
	for _, outcome := range cacheOutcomes {
		if reg.Counter(telemetry.Label(MetricCampaignCalibrationCache, "outcome", outcome)).Value() > 0 {
			return outcome
		}
	}
	return ""
}

// countCalibrationCache counts one lookup outcome in reg; a no-op without
// telemetry.
func countCalibrationCache(reg *telemetry.Registry, outcome int) {
	if reg != nil {
		reg.Counter(telemetry.Label(MetricCampaignCalibrationCache, "outcome", cacheOutcomes[outcome])).Inc()
	}
}

// campaignTelemetry bundles the campaign-level instruments. A nil
// *campaignTelemetry is inert, so campaign code records unconditionally.
type campaignTelemetry struct {
	injections *telemetry.Counter
	mismatches *telemetry.Counter
	nonFinite  *telemetry.Counter
	detected   *telemetry.Counter
	aborted    *telemetry.Counter
	batches    *telemetry.Counter
	latency    *telemetry.Histogram
	occupancy  *telemetry.Histogram
	rate       *telemetry.Gauge
	start      time.Time

	// Detection-pipeline instruments. detections is keyed by detector name
	// and pre-built from the campaign config (never mutated afterwards), so
	// parallel workers share it without locking; the counters themselves
	// are atomic.
	recoveries *telemetry.Counter
	detections map[string]*telemetry.Counter
	reg        *telemetry.Registry
}

// newCampaignTelemetry fetches the campaign instruments from reg (nil reg
// → nil, inert) and publishes the planned injection count for progress
// rendering. detectors lists the armed detector names, so their labeled
// counters exist (at zero) from campaign start.
func newCampaignTelemetry(reg *telemetry.Registry, planned int, detectors []string) *campaignTelemetry {
	if reg == nil {
		return nil
	}
	reg.Gauge(MetricCampaignPlanned).Set(float64(planned))
	ct := &campaignTelemetry{
		injections: reg.Counter(MetricCampaignInjections),
		mismatches: reg.Counter(MetricCampaignMismatches),
		nonFinite:  reg.Counter(MetricCampaignNonFinite),
		detected:   reg.Counter(MetricCampaignDetected),
		aborted:    reg.Counter(MetricCampaignAborted),
		batches:    reg.Counter(MetricCampaignBatches),
		latency:    reg.Histogram(MetricCampaignLatency, telemetry.DurationBuckets),
		occupancy:  reg.Histogram(MetricCampaignOccupancy, occupancyBuckets),
		rate:       reg.Gauge(MetricCampaignRate),
		start:      time.Now(),
		reg:        reg,
	}
	if len(detectors) > 0 {
		ct.recoveries = reg.Counter(MetricCampaignRecoveries)
		ct.detections = make(map[string]*telemetry.Counter, len(detectors))
		for _, name := range detectors {
			ct.detections[name] = reg.Counter(telemetry.Label(MetricCampaignDetections, "detector", name))
		}
	}
	return ct
}

// record folds one injection outcome into the campaign counters.
func (ct *campaignTelemetry) record(mismatch, nonFinite, detected bool, d time.Duration) {
	if ct == nil {
		return
	}
	ct.injections.Inc()
	if mismatch {
		ct.mismatches.Inc()
	}
	if nonFinite {
		ct.nonFinite.Inc()
	}
	if detected {
		ct.detected.Inc()
	}
	ct.latency.Observe(d.Seconds())
	if elapsed := time.Since(ct.start).Seconds(); elapsed > 0 {
		// Campaign-level throughput: executed injections over campaign wall
		// time. A gauge (not a counter rate) so a single metrics dump at
		// campaign end already carries the paper's headline number.
		ct.rate.Set(float64(ct.injections.Value()) / elapsed)
	}
}

// recordBatch counts one batched forward pass carrying `rows` injections
// out of a `capacity`-row batch.
func (ct *campaignTelemetry) recordBatch(rows, capacity int) {
	if ct == nil {
		return
	}
	ct.batches.Inc()
	ct.occupancy.Observe(float64(rows) / float64(capacity))
}

// recordAborted counts an injection whose inference panicked and was
// recovered (degraded mode), or was discarded by a PolicyAbort detection.
func (ct *campaignTelemetry) recordAborted() {
	if ct == nil {
		return
	}
	ct.aborted.Inc()
}

// recordDetections counts one outcome's per-detector flags and, when the
// recovery policy restored the prediction, the recovery.
func (ct *campaignTelemetry) recordDetections(detectedBy []string, recovered bool) {
	if ct == nil || ct.detections == nil {
		return
	}
	for _, name := range detectedBy {
		if c, ok := ct.detections[name]; ok {
			c.Inc()
		}
	}
	if recovered && ct.recoveries != nil {
		ct.recoveries.Inc()
	}
}

// publishSampling exposes a sampled campaign's estimator accounting at
// campaign end: the covered fault space, how it was dispatched, the 95% CI
// half-width of the SDC-rate estimate (only while finite — a Prometheus
// exposition must not carry +Inf), and the early-stop boundary if sequential
// stopping fired.
func (ct *campaignTelemetry) publishSampling(rep *sampling.Report) {
	if ct == nil || ct.reg == nil || rep == nil {
		return
	}
	ct.reg.Counter(MetricSamplingFaultSpace).Add(int64(rep.FaultSpace()))
	ct.reg.Counter(MetricSamplingExecuted).Add(int64(rep.ExecutedTotal()))
	ct.reg.Counter(MetricSamplingPruned).Add(int64(rep.PrunedTotal()))
	ct.reg.Counter(MetricSamplingSkipped).Add(int64(rep.SkippedTotal()))
	if hw := rep.CIHalfWidth(); !math.IsInf(hw, 0) && !math.IsNaN(hw) {
		ct.reg.Gauge(MetricSamplingCIWidth).Set(hw)
	}
	if rep.StopIndex > 0 {
		ct.reg.Gauge(MetricSamplingStopIndex).Set(float64(rep.StopIndex))
	}
}

// publishCoverage exposes per-detector coverage gauges (detections over
// executed injections) at campaign end.
func (ct *campaignTelemetry) publishCoverage(rep *CampaignReport) {
	if ct == nil || ct.reg == nil || len(rep.PerDetector) == 0 {
		return
	}
	for name, st := range rep.PerDetector {
		ct.reg.Gauge(telemetry.Label(MetricCampaignCoverage, "detector", name)).
			Set(st.Coverage(rep.Injections + rep.Aborted))
	}
}
