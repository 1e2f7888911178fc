package goldeneye

import (
	"context"
	"fmt"
	"sync/atomic"

	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/metrics"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/rng"
	"goldeneye/internal/sampling"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/tensor"
	"goldeneye/internal/train"
)

// CampaignConfig specifies a fault-injection campaign (paper §IV-C): a
// number of unique single-bit flips at a chosen layer and site, each applied
// to one inference, with mismatch and ΔLoss recorded against the fault-free
// reference under the same number format.
type CampaignConfig struct {
	// Format is the emulated number system faults are injected into. With
	// an Assignment it may stay nil; the injection format then resolves
	// from the assigned role at the target layer (activations for neuron
	// targets, weights for weight targets, the accumulator format for
	// SiteAccum).
	Format numfmt.Format

	// Assignment is the format surface the network runs in: a whole-network
	// parameter conversion (Params) and per-layer weights, activations and
	// accumulator roles. Nil runs the network in native float32 with only
	// the injected value in Format. Accumulator roles are required for
	// format-space SiteAccum injection; without one, accumulator faults
	// flip bits of the native float32 register.
	Assignment *FormatAssignment

	// Site selects data-value, metadata, or accumulator-interior
	// injection. SiteAccum flips a bit of one partial-sum register inside
	// the target layer's GEMM at a random reduction step; it requires a
	// neuron target and a GEMM-backed layer (CONV or LINEAR).
	Site inject.Site

	// Target selects neuron (activation) or weight corruption.
	Target inject.Target

	// FaultKind selects the error model (flip, stuck-at-0/1, burst); the
	// zero value is the paper's default transient single-bit flip.
	FaultKind inject.FaultKind

	// Layer is the layer visit index to inject into.
	Layer int

	// Injections is the number of unique faults (the paper uses 1000 per
	// layer and site).
	Injections int

	// FlipsPerInjection is the number of simultaneous bit flips per
	// injection (0 or 1 = the single-bit model; higher values model
	// multi-bit upsets). Each flip is drawn independently.
	FlipsPerInjection int

	// Seed determines the fault sequence.
	Seed uint64

	// ShardIndex and ShardCount slice one campaign into deterministic
	// injection-range shards for distributed execution: a shard (s, K) is
	// the campaign engine's one worker with ownership stride K, executing
	// exactly the injection indices i ≡ s (mod K), in increasing order, and
	// discarding the draws of the fault sequence it does not own. Worker s
	// of a RunCampaignParallel run at workers=K owns the same indices, and
	// MergeShardReports uses that run's merge, so K shard reports merged
	// are byte-identical to it. ShardCount 0 or 1 means unsharded; sharded
	// campaigns run at one worker on each node (the fleet, not the worker
	// pool, provides the parallelism) and are incompatible with Resume.
	ShardIndex int
	ShardCount int

	// Pool is the evaluation pool; injection i uses sample i mod Pool.Len()
	// so faults spread evenly over inputs. Its Batch geometry is the
	// campaign's default injection batch size when BatchSize is unset.
	Pool *EvalPool

	// BatchSize is the number of distinct faults packed into one batched
	// forward pass (the paper's batching lever, §IV-B). Each fault lands
	// in its own pool sample of the pass, and — because every pass
	// computes format metadata per sample, never across samples — the
	// report is bit-identical to the batch-1 path under the same seed. 0
	// or 1 selects the serial path; weight-target campaigns always run
	// serially (weights are shared by every sample of a batch). When 0,
	// Pool.Batch is used if set.
	BatchSize int

	// UseRanger enables the range detector (on by default in the paper;
	// here explicit).
	UseRanger bool

	// KeepTrace records each injection's outcome (needed by the metric-
	// convergence experiment); costs memory proportional to Injections.
	KeepTrace bool

	// Metrics, when non-nil, receives campaign telemetry: injection
	// progress/mismatch/latency counters and per-layer forward-time
	// histograms (see internal/telemetry/README.md for the metric
	// inventory). It does not alter results; parallel campaigns share one
	// registry across workers via lock-free atomics.
	Metrics *telemetry.Registry

	// MeasureDMR additionally re-executes every injected inference without
	// the transient fault and counts an injection as *detected* when the
	// two outputs differ — dual modular redundancy, one of the software-
	// directed protection techniques the paper positions GoldenEye for
	// (§V-B). Permanent corruption (weight faults) persists across both
	// executions and is structurally undetectable by DMR. Doubles the
	// campaign's inference cost.
	MeasureDMR bool

	// MaxAborts bounds degraded-mode operation: a panicking injection
	// (e.g. metadata corruption producing a degenerate scale) is recovered
	// and counted as aborted rather than crashing the campaign, but once
	// more than MaxAborts injections have aborted the campaign fails with
	// the last *InjectionError. Zero or negative means unlimited — the
	// campaign always completes in degraded mode. Injections discarded by
	// RecoverAbort detections count in the report's Aborted field but not
	// toward this threshold (they are expected behaviour, not failures).
	MaxAborts int

	// Detectors declares the campaign's fault-detection pipeline (see
	// internal/detect): calibrated range guards, NaN/Inf sentinels, DMR
	// duplicate-and-compare, ABFT checksums. Detectors calibrate on the
	// fault-free reference pass, measure their false-positive rate on one
	// more fault-free pool sweep, and then monitor every injected
	// inference. Empty means no detection pipeline — campaign reports are
	// bit-identical to pre-detector behaviour.
	Detectors []detect.Spec

	// Recovery pairs the armed detectors with a recovery policy: clamp or
	// zero flagged activations in place, re-execute the inference without
	// the transient fault, or abort (discard) the flagged inference.
	// RecoverNone records detections without intervening. Requires
	// Detectors.
	Recovery detect.Policy

	// Resume continues a previously interrupted campaign from its partial
	// report (persisted in wire form by internal/checkpoint). The report's
	// Injections+Aborted executed draws of the deterministic fault
	// sequence are drawn and discarded, and the run continues its
	// aggregates (CampaignResult, Detected, Aborted, Recovered and the
	// per-detector counts) in place, so a resumed campaign's report is
	// bit-identical to an uninterrupted run's. Its Config, Trace,
	// Sampling and Interrupted fields are not consulted. Incompatible with
	// KeepTrace (traces are not persisted).
	Resume *CampaignReport

	// Sampling turns the campaign into a statistically-driven estimator
	// (see internal/sampling): a deterministic per-stratum selection hash
	// keeps a configurable fraction of the fault space, analytically-masked
	// faults are counted without a forward pass, and the report carries a
	// stratified SDC-rate estimate with a confidence interval — optionally
	// stopping early once the interval is tighter than the plan's TargetCI.
	// An inert plan (fraction 1, nothing else enabled) is normalized to nil,
	// so fraction-1.0 campaigns stay byte-identical — wire bytes included —
	// to exhaustive ones. Sampled campaigns are incompatible with Resume,
	// and sequential stopping is incompatible with sharding (a shard cannot
	// see its siblings' moments; the fleet coordinator rejects TargetCI).
	Sampling *sampling.Plan

	// Progress, when non-nil, receives cumulative campaign progress after
	// every injection group: done counts executed injections (recorded plus
	// aborted, including a resumed prefix), total is Injections — or, for a
	// sampled campaign, the selection's executed count. Parallel
	// campaigns invoke it concurrently from every worker, so the callback
	// must be safe for concurrent use. It observes the campaign without
	// altering its results; the campaign service streams it to SSE clients.
	Progress func(done, total int)
}

// InjectionError is one injection that aborted: a panic during the injected
// inference (degenerate metadata scales, non-finite propagation into an
// assertion, a corrupted hook) was recovered and converted into this typed
// error. Campaigns continue in degraded mode past aborted injections,
// counting them in CampaignReport.Aborted, until CampaignConfig.MaxAborts
// is exceeded.
type InjectionError struct {
	// Shard is the worker index that executed the injection (0 for serial
	// campaigns).
	Shard int

	// Injection is the global injection index within the campaign.
	Injection int

	// Fault is the first flip of the offending injection.
	Fault inject.Fault

	// Panic is the recovered panic value.
	Panic interface{}
}

// Error renders the abort with enough context to replay it (the fault plus
// its position in the deterministic sequence).
func (e *InjectionError) Error() string {
	return fmt.Sprintf("goldeneye: injection %d aborted on worker %d (%s): panic: %v",
		e.Injection, e.Shard, e.Fault, e.Panic)
}

// InjectionOutcome is one recorded injection (with KeepTrace).
type InjectionOutcome struct {
	// Fault is the injection's first flip; Extra holds the remainder for
	// multi-bit injections.
	Fault     inject.Fault
	Extra     []inject.Fault
	Sample    int
	Mismatch  bool
	DeltaLoss float64

	// Index is the outcome's global injection index. Populated only for
	// sampled campaigns, whose traces are sparse — it keys the merge of
	// sharded sampled traces back into global order. Exhaustive traces are
	// dense (position == index) and leave it zero, keeping their wire bytes
	// unchanged.
	Index int `json:",omitempty"`

	// NonFinite reports whether the delivered output contained NaN/Inf —
	// or, when a sentinel detector is armed, whether any intermediate
	// activation of the injected pass went non-finite (catching faults
	// that saturate back to finite values before the logits).
	NonFinite bool

	// FirstNonFiniteLayer is the layer visit index whose output first went
	// non-finite during the injected pass, or -1 when none was observed.
	// Populated only when a sentinel detector is armed; the legacy
	// logits-only NonFinite check cannot attribute a layer.
	FirstNonFiniteLayer int

	// Detected reports whether any detector flagged the injection: the
	// detection pipeline (DetectedBy non-empty) or the legacy MeasureDMR
	// re-execution.
	Detected bool

	// DetectedBy lists the pipeline detectors that flagged the injection,
	// in firing order (empty without CampaignConfig.Detectors).
	DetectedBy []string

	// Recovered reports whether the recovery policy restored the
	// fault-free prediction for a detected injection.
	Recovered bool

	// Aborted marks an injection whose inference panicked and was
	// recovered, or was discarded by a RecoverAbort detection; its metric
	// fields are zero.
	Aborted bool
}

// CampaignReport is a campaign's aggregated result plus optional trace.
type CampaignReport struct {
	metrics.CampaignResult

	Config CampaignConfig
	Trace  []InjectionOutcome

	// Detected counts injections flagged by any detector: the detection
	// pipeline (CampaignConfig.Detectors) or the legacy MeasureDMR
	// re-execution.
	Detected int

	// Recovered counts detected injections whose recovery policy restored
	// the fault-free prediction (graceful degradation).
	Recovered int

	// PerDetector breaks detection down by pipeline detector: detections,
	// recoveries, and the false-positive statistics measured on the
	// fault-free pool sweep. Nil without CampaignConfig.Detectors.
	PerDetector map[string]metrics.DetectorStats

	// Aborted counts injections excluded from the metric aggregates:
	// panicked inferences recovered in degraded mode, plus inferences
	// discarded by a RecoverAbort detection.
	Aborted int

	// Sampling carries a sampled campaign's stratified estimator: the
	// per-stratum dispatch accounting (drawn/pruned/skipped/executed) and
	// Welford moments the SDC-rate estimate and its confidence interval
	// derive from. Nil for exhaustive campaigns. The embedded
	// CampaignResult still aggregates exactly the executed injections; the
	// estimator is what extrapolates them to the full fault space.
	Sampling *sampling.Report

	// Interrupted marks a report cut short by context cancellation; the
	// aggregates cover exactly the injections completed before the cut.
	Interrupted bool
}

// DetectionCoverage returns the fraction of injections any detector
// flagged.
func (r *CampaignReport) DetectionCoverage() float64 {
	if r.Injections == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Injections)
}

// DetectorCoverage returns the fraction of executed injections (recorded
// plus aborted — RecoverAbort discards every flagged inference) the named
// pipeline detector flagged.
func (r *CampaignReport) DetectorCoverage(name string) float64 {
	return r.PerDetector[name].Coverage(r.Injections + r.Aborted)
}

// RecoveryRate returns the fraction of detected injections the recovery
// policy restored.
func (r *CampaignReport) RecoveryRate() float64 {
	if r.Detected == 0 {
		return 0
	}
	return float64(r.Recovered) / float64(r.Detected)
}

// recordDetections folds one outcome's per-detector flags into the
// report's breakdown.
func (r *CampaignReport) recordDetections(out InjectionOutcome) {
	if len(out.DetectedBy) == 0 {
		return
	}
	if r.PerDetector == nil {
		r.PerDetector = make(map[string]metrics.DetectorStats)
	}
	for _, name := range out.DetectedBy {
		d := r.PerDetector[name]
		d.Detections++
		if out.Recovered {
			d.Recovered++
		}
		r.PerDetector[name] = d
	}
}

// mergeResumeDetectors folds a resumed campaign's carried-forward
// per-detector counts into dst (this run's baseline: zero detections plus
// re-measured false positives). Only Detections/Recovered are carried —
// false-positive statistics belong to the measuring run.
func mergeResumeDetectors(dst, prev map[string]metrics.DetectorStats) map[string]metrics.DetectorStats {
	if len(prev) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]metrics.DetectorStats, len(prev))
	}
	for name, p := range prev {
		d := dst[name]
		d.Detections += p.Detections
		d.Recovered += p.Recovered
		dst[name] = d
	}
	return dst
}

// evalPool resolves and validates the configured evaluation pool.
func (cfg *CampaignConfig) evalPool() (*EvalPool, error) {
	if cfg.Pool == nil {
		return nil, &ConfigError{Field: "Pool", Reason: "campaign requires an evaluation pool"}
	}
	if err := cfg.Pool.validate(); err != nil {
		return nil, err
	}
	return cfg.Pool, nil
}

// sharded reports whether the campaign is one shard of a distributed run.
func (cfg *CampaignConfig) sharded() bool { return cfg.ShardCount > 1 }

// Validate checks the configuration's model-independent rules — the ones
// that need neither a simulator nor an evaluation pool: a format or
// assignment, a positive injection count, a known site and target (and
// their combination with the fault kind), the shard geometry, the sampling
// plan and the features it excludes, the recovery policy's detectors, and
// the resume point. Violations come back as *ConfigError. Every campaign
// entry point runs it first; the campaign service runs it on submission,
// before any model loads.
func (cfg *CampaignConfig) Validate() error {
	if cfg.Format == nil && cfg.Assignment == nil {
		return &ConfigError{Field: "Format", Reason: "campaign requires a format"}
	}
	if cfg.Assignment != nil {
		if err := cfg.Assignment.Validate(); err != nil {
			return err
		}
	}
	if cfg.Injections <= 0 {
		return configErrf("Injections", "campaign requires a positive injection count, got %d", cfg.Injections)
	}
	if cfg.Site < inject.SiteValue || cfg.Site > inject.SiteAccum {
		return configErrf("Site", "unknown injection site %s", cfg.Site)
	}
	if cfg.Target != inject.TargetNeuron && cfg.Target != inject.TargetWeight {
		return configErrf("Target", "unknown injection target %s", cfg.Target)
	}
	if cfg.Site == inject.SiteAccum {
		if cfg.Target != inject.TargetNeuron {
			return &ConfigError{Field: "Target",
				Reason: "accumulator faults corrupt partial sums of the layer output; they require a neuron target"}
		}
		if cfg.FaultKind == inject.KindBurst {
			return &ConfigError{Field: "FaultKind",
				Reason: "burst faults span the elements of one value tensor and have no accumulator-register analogue"}
		}
	}
	if err := cfg.validateShard(); err != nil {
		return err
	}
	if err := cfg.validateSampling(); err != nil {
		return err
	}
	if cfg.Recovery != detect.PolicyNone && len(cfg.Detectors) == 0 {
		return configErrf("Recovery", "recovery policy %s requires Detectors", cfg.Recovery)
	}
	if cfg.Resume != nil {
		if cfg.KeepTrace {
			return configErrf("Resume", "resume does not support KeepTrace campaigns")
		}
		if done := cfg.Resume.Injections + cfg.Resume.Aborted; done < 0 || done > cfg.Injections {
			return configErrf("Resume", "resume point %d outside campaign of %d injections", done, cfg.Injections)
		}
	}
	return nil
}

// validateShard checks the shard geometry. Zero values (unsharded) always
// pass; a sharded campaign needs an in-range index, at most one shard per
// injection, and no Resume state (shard reassignment re-runs whole shards —
// the fleet's idempotent dispatch, not mid-shard checkpoints, provides
// crash-safety).
func (cfg *CampaignConfig) validateShard() error {
	if cfg.ShardCount < 0 {
		return configErrf("ShardCount", "negative shard count %d", cfg.ShardCount)
	}
	if cfg.ShardIndex < 0 {
		return configErrf("ShardIndex", "negative shard index %d", cfg.ShardIndex)
	}
	if !cfg.sharded() {
		if cfg.ShardIndex != 0 {
			return configErrf("ShardIndex", "shard index %d requires ShardCount > 1", cfg.ShardIndex)
		}
		return nil
	}
	if cfg.ShardIndex >= cfg.ShardCount {
		return configErrf("ShardIndex", "shard index %d outside shard count %d", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.ShardCount > cfg.Injections {
		return configErrf("ShardCount", "shard count %d exceeds %d injections (empty shards are not allowed; clamp the shard count)", cfg.ShardCount, cfg.Injections)
	}
	if cfg.Resume != nil {
		return configErrf("Resume", "sharded campaigns do not resume; re-dispatch the shard instead")
	}
	return nil
}

// validateSampling checks the sampling plan and the features an active
// plan excludes.
func (cfg *CampaignConfig) validateSampling() error {
	if err := cfg.Sampling.Validate(); err != nil {
		return &ConfigError{Field: "Sampling", Reason: err.Error()}
	}
	if cfg.Sampling.Active() {
		if cfg.Resume != nil {
			return configErrf("Sampling",
				"sampled campaigns do not resume (their resume point is a fault-space index, not an executed count); re-run the campaign")
		}
		if cfg.Sampling.TargetCI > 0 && cfg.sharded() {
			return configErrf("Sampling",
				"sequential stopping needs the whole campaign's moments; a shard cannot stop on its own (drop TargetCI or the shard geometry)")
		}
		if cfg.Sampling.Prune {
			switch {
			case cfg.Site != inject.SiteValue:
				return configErrf("Sampling",
					"analytic pruning bounds per-bit value perturbations; it requires a value site, got %s", cfg.Site)
			case cfg.Target != inject.TargetNeuron:
				return configErrf("Sampling",
					"analytic pruning compares perturbations against the layer's calibrated activation range; it requires a neuron target")
			case cfg.FaultKind == inject.KindBurst:
				return configErrf("Sampling",
					"burst faults span tensor elements and have no per-bit perturbation bound to prune with")
			case !cfg.UseRanger:
				return configErrf("Sampling",
					"analytic pruning needs the ranger's calibrated activation bounds; set UseRanger")
			}
		}
	}
	return nil
}

// PlannedInjections is the number of injections this configuration will
// execute: Injections when unsharded, and the size of the shard's stride
// slice {i : i ≡ ShardIndex (mod ShardCount)} when sharded. Progress
// callbacks and job totals use this value.
func (cfg *CampaignConfig) PlannedInjections() int {
	if !cfg.sharded() {
		return cfg.Injections
	}
	n := cfg.Injections / cfg.ShardCount
	if cfg.ShardIndex < cfg.Injections%cfg.ShardCount {
		n++
	}
	return n
}

// packBatch resolves the campaign's injection batch size: BatchSize if set,
// else the pool's Batch geometry, else 1 (serial). Weight-target campaigns
// always pack 1 — a weight fault corrupts state shared by every row of a
// batch, so distinct weight faults cannot share a forward pass.
func (cfg *CampaignConfig) packBatch() int {
	b := cfg.BatchSize
	if b <= 0 && cfg.Pool != nil {
		b = cfg.Pool.Batch
	}
	if b < 1 || cfg.Target == inject.TargetWeight {
		b = 1
	}
	return b
}

// calibration is a campaign's fault-free state: its clean state, shared
// with every campaign of the same calibration key (see
// calibration_cache.go), plus the campaign's own resolved geometry, pack
// batch and sampled selection. It is immutable once setup completes, so
// workers share it without locking.
type calibration struct {
	*cleanState

	cfg   CampaignConfig
	geom  campaignGeom
	batch int // the campaign's pack batch (see packBatch)

	// sel is the sampled selection (nil for an exhaustive campaign).
	sel *campaignSelection
}

// cleanState is the fault-free state the setup sweeps compute: the legacy
// UseRanger range profile, the sealed detection pipeline with its measured
// false positives, the clean references and the cut table. A miss builds it
// with every worker running its share of the setup sweeps on its own model
// (see engine.setup): each slice writes only its own samples' references
// and cuts, and its calibration observations stay in its pass until the
// slices fold in pool order. Once sealed it is read-only, so campaigns
// share it without locking. The sealed pipeline's detectors are read-only
// after FinishCalibration, and keep any per-pass state in the hooks Arm
// returns. It holds no model, pool, registry or config.
type cleanState struct {
	// ranger is the UseRanger range profile (nil without UseRanger).
	ranger *detect.Ranger

	// pipeline is the sealed detection pipeline (nil without
	// cfg.Detectors); fpStats are the false-positive counts it raised on
	// its fault-free pool sweep.
	pipeline *detect.Pipeline
	fpStats  map[string]metrics.DetectorStats

	// cleanPred and cleanLoss are the fault-free reference per pool sample.
	cleanPred []int
	cleanLoss []float64

	// The cut table (see campaign_prefix.go), nil when clean-prefix reuse
	// is off: cuts holds every pool sample's clean input of top-level child
	// block, and fullPass marks the samples whose clean prefix raised a
	// detector event. The armed clean sweep fills both.
	block    int
	cuts     *tensor.Tensor
	fullPass []bool
}

// campaignRunner is one worker's campaign state: its simulator and weight
// backup, timing hooks and scratch. The embedded calibration is the
// campaign's, shared read-only with every other worker.
type campaignRunner struct {
	*calibration

	sim    *Simulator
	backup *inject.WeightBackup

	// timing is this runner's per-layer forward timer (nil without
	// cfg.Metrics). One per runner because the hook closure carries
	// per-pass state; the histograms it feeds are shared and atomic.
	timing *nn.HookSet

	// scratch is this runner's reusable per-group storage (see
	// campaignScratch). One per runner — a runner is single-threaded, and
	// parallel workers each own a runner.
	scratch *campaignScratch

	// prefixRows are the MetricCampaignPrefixRows counters by outcome (nil
	// without cfg.Metrics).
	prefixRows [2]*telemetry.Counter
}

// campaignArena pools the float32 buffers backing batched campaign inputs,
// so back-to-back campaigns — format sweeps, the bench matrix, the job
// server — reuse storage instead of re-allocating one input tensor per
// injection group.
var campaignArena = tensor.NewArena()

// campaignScratch is a campaignRunner's reusable per-group storage. The
// batched injection loop runs thousands of small groups; without the
// scratch every group allocated its batch-input tensor, its fault sets,
// and five bookkeeping slices, and those allocations dominate the loop
// once the emulation kernels are fused. All fields are sized once for the
// runner's pack batch and resliced per group.
//
// Aliasing rule: fault rows handed out by faultRow alias faultBuf, and the
// outcome Extra field aliases those rows. Any outcome that outlives its
// injection group — i.e. anything appended to a report's Trace — must go
// through traceCopy first.
type campaignScratch struct {
	xbBuf     []float32                    // arena-backed storage behind every xb view
	xb        map[gatherKey]*tensor.Tensor // cached views over xbBuf
	yb        []int
	idx       []int
	samples   []int
	faultBuf  []inject.Fault // batch×flips backing store for fault rows
	faultsets [][]inject.Fault
	outs      []InjectionOutcome
	errs      []error
}

// gatherKey names a cached gather view: its source and row count.
type gatherKey struct {
	src  *tensor.Tensor
	rows int
}

// newCampaignScratch sizes a scratch for groups of up to batch rows of up
// to rowLen elements, with flips faults per row.
func newCampaignScratch(rowLen, batch, flips int) *campaignScratch {
	return &campaignScratch{
		xbBuf:     campaignArena.Get(batch * rowLen),
		xb:        make(map[gatherKey]*tensor.Tensor, 4),
		yb:        make([]int, batch),
		idx:       make([]int, batch),
		samples:   make([]int, batch),
		faultBuf:  make([]inject.Fault, batch*flips),
		faultsets: make([][]inject.Fault, batch),
		outs:      make([]InjectionOutcome, batch),
		errs:      make([]error, batch),
	}
}

// faultRow returns the k-th reusable fault row (flips faults long). The
// row is overwritten when a later group reuses slot k.
func (sc *campaignScratch) faultRow(k, flips int) []inject.Fault {
	return sc.faultBuf[k*flips : (k+1)*flips]
}

// gather fills and returns the cached batch-input view for samples: the
// selected rows of x — the pool input or the cut table — copied into
// arena-backed storage, wrapped once per source and distinct row count (a
// campaign sees at most two — the full batch and the final partial
// group). The view is valid until the next gather call.
func (sc *campaignScratch) gather(x *tensor.Tensor, samples []int) *tensor.Tensor {
	rows := len(samples)
	key := gatherKey{x, rows}
	xb := sc.xb[key]
	if xb == nil {
		shape := append([]int{rows}, x.Shape()[1:]...)
		xb = tensor.Wrap(sc.xbBuf[:rows*(x.Len()/x.Dim(0))], shape...)
		sc.xb[key] = xb
	}
	tensor.GatherRowsInto(xb, x, samples)
	return xb
}

// release returns the arena-backed storage to the pool. The scratch, and
// every tensor view it handed out, must not be used afterwards.
func (sc *campaignScratch) release() {
	if sc == nil || sc.xbBuf == nil {
		return
	}
	campaignArena.Put(sc.xbBuf)
	sc.xbBuf = nil
	sc.xb = nil
}

// traceCopy returns out with its Extra fault slice deep-copied. Outcomes
// headed for a report's Trace outlive the injection group that produced
// them, while Extra aliases the runner's reused fault scratch.
func traceCopy(out InjectionOutcome) InjectionOutcome {
	if len(out.Extra) > 0 {
		out.Extra = append([]inject.Fault(nil), out.Extra...)
	}
	return out
}

// campaignGeom is the validated fault-drawing geometry campaignGeometry
// resolves: the evaluation pool, the target element count, the flips per
// injection, and the injection format/depth.
type campaignGeom struct {
	pool  *EvalPool
	elems int
	flips int

	// inj is the format faults encode in: cfg.Format for value/metadata
	// sites (or the assigned role standing in for a nil Format), and the
	// target layer's accumulator format for SiteAccum — nil there meaning
	// the native float32 register.
	inj numfmt.Format

	// depth is the target layer's GEMM reduction depth — the number of
	// multiply-accumulate steps a SiteAccum fault can land on. Zero for
	// other sites.
	depth int
}

// campaignGeometry validates cfg against the simulator and returns the
// resolved evaluation pool plus the fault-drawing geometry.
func (s *Simulator) campaignGeometry(cfg CampaignConfig) (campaignGeom, error) {
	var g campaignGeom
	fail := func(err error) (campaignGeom, error) { return campaignGeom{}, err }
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	pool, err := cfg.evalPool()
	if err != nil {
		return fail(err)
	}
	g.pool = pool
	// Validate the effective pack batch, not the raw field: weight-target
	// campaigns degrade any BatchSize to the serial path (see packBatch),
	// so an oversized request is only an error when it would actually run.
	if b := cfg.packBatch(); b > pool.Len() {
		return fail(configErrf("BatchSize",
			"campaign batch %d exceeds the pool's %d samples", b, pool.Len()))
	}
	g.elems = s.sizes[cfg.Layer]
	if cfg.Target == inject.TargetNeuron && g.elems == 0 {
		return fail(fmt.Errorf("goldeneye: unknown layer index %d", cfg.Layer))
	}
	if cfg.Target == inject.TargetWeight {
		p, err := s.widx.ParamOfLayer(cfg.Layer)
		if err != nil {
			return fail(err)
		}
		g.elems = p.Value.Len()
	}
	g.flips = cfg.FlipsPerInjection
	if g.flips <= 0 {
		g.flips = 1
	}
	if cfg.Site == inject.SiteAccum {
		info, ok := s.layerInfo(cfg.Layer)
		if !ok {
			return fail(fmt.Errorf("goldeneye: unknown layer index %d", cfg.Layer))
		}
		mod := s.modules[cfg.Layer]
		depth, hasGEMM := nn.GEMMDepth(mod)
		if !hasGEMM {
			return fail(configErrf("Layer",
				"accumulator-site injection requires a GEMM-backed layer, but layer %d is %s (%s)",
				cfg.Layer, info.Kind, info.Name))
		}
		g.depth = depth
		g.inj = cfg.Assignment.rolesFor(info).Accumulator
		return g, nil
	}
	// Value/metadata sites: resolve the injection format — the explicit
	// Format, or the assigned role matching the target at the target layer.
	g.inj = cfg.Format
	if g.inj == nil {
		info, _ := s.layerInfo(cfg.Layer)
		roles := cfg.Assignment.rolesFor(info)
		if cfg.Target == inject.TargetWeight {
			g.inj = roles.Weights
		} else {
			g.inj = roles.Activations
		}
		if g.inj == nil {
			return fail(configErrf("Format",
				"campaign requires an injection format: set Format, or assign layer %d a %s role",
				cfg.Layer, map[inject.Target]string{inject.TargetWeight: "weights", inject.TargetNeuron: "activations"}[cfg.Target]))
		}
	}
	if cfg.Site == inject.SiteMetadata && inject.MetaBitWidth(g.inj) == 0 {
		return fail(fmt.Errorf("goldeneye: format %s has no metadata to inject into", g.inj.Name()))
	}
	if cfg.Sampling.Active() && cfg.Sampling.Prune && !sampling.Prunable(g.inj) {
		return fail(configErrf("Sampling",
			"analytic pruning requires a metadata-free injection format of at most %d bits, got %s",
			sampling.MaxPruneBits, g.inj.Name()))
	}
	return g, nil
}

// newRunner prepares s as one campaign worker: it backs up the weights and
// converts them per cfg's assignment. Callers must invoke close() to
// restore them, and hand the runner the campaign's calibration (use)
// before it injects.
func (s *Simulator) newRunner(cfg CampaignConfig) *campaignRunner {
	r := &campaignRunner{sim: s, backup: inject.BackupWeights(s.model)}
	if cfg.Metrics != nil {
		r.timing = layerTimingHooks(cfg.Metrics)
		r.prefixRows = prefixRowCounters(cfg.Metrics)
	}
	s.applyWeightAssignment(cfg.Assignment)
	return r
}

// use adopts c as the runner's calibration and sizes the runner's scratch
// for it: a group's input rows come from the pool or the cut table.
func (r *campaignRunner) use(c *calibration) {
	r.calibration = c
	n := c.geom.pool.Len()
	rowLen := c.geom.pool.X.Len() / n
	if c.cuts != nil {
		rowLen = max(rowLen, c.cuts.Len()/n)
	}
	r.scratch = newCampaignScratch(rowLen, c.batch, c.geom.flips)
}

// newCalibration lays out the campaign's calibration over geometry g. When
// the process-wide cache holds the campaign's calibration key, the
// calibration adopts the cached clean state and there is nothing to set
// up. Otherwise it builds the detection pipeline on the runner's model,
// whose weights newRunner already converted, and returns the calibration,
// empty but for its shape, with the setup phases that fill it. The
// engine's workers run the phases together (see engine.setup); the last
// phase to seal stores a keyed clean state in the cache.
func (r *campaignRunner) newCalibration(cfg CampaignConfig, g campaignGeom) (*calibration, []*setupPhase, error) {
	c := &calibration{cfg: cfg, geom: g, batch: cfg.packBatch()}
	block := r.sim.cutBlock(cfg)
	key, keyed := r.sim.calibrationKey(c, block)
	outcome := cacheBypass
	if keyed {
		if st, ok := calibrations.Get(key); ok {
			c.cleanState = st
			countCalibrationCache(cfg.Metrics, cacheHit)
			return c, nil, nil
		}
		outcome = cacheMiss
	}
	countCalibrationCache(cfg.Metrics, outcome)
	c.cleanState = &cleanState{}
	phases, err := r.setupPhases(c, block)
	if err != nil || !keyed {
		return c, phases, err
	}
	last := phases[len(phases)-1]
	seal := last.seal
	last.seal = func() error {
		if err := seal(); err != nil {
			return err
		}
		calibrations.Add(key, c.cleanState)
		return nil
	}
	return c, phases, nil
}

// setupPhases builds c's detection pipeline and returns the setup phases
// that fill c's clean state: the UseRanger profile with the clean
// references, then, when a pipeline exists or the cut table is laid out
// (block > 0), the armed clean sweep.
func (r *campaignRunner) setupPhases(c *calibration, block int) ([]*setupPhase, error) {
	cfg, g := c.cfg, c.geom
	// The detection pipeline builds after weight quantization, so
	// structural checksums (ABFT) describe the weights the campaign
	// actually runs with.
	if len(cfg.Detectors) > 0 {
		pipe, err := detect.Build(cfg.Detectors, cfg.Recovery, r.sim.detectTarget())
		if err != nil {
			return nil, err
		}
		c.pipeline = pipe
	}
	var calSpan telemetry.Span
	if cfg.Metrics != nil && c.pipeline != nil {
		calSpan = telemetry.StartSpan(cfg.Metrics.Histogram(MetricCampaignCalibration, telemetry.DurationBuckets))
	}
	n := g.pool.Len()
	c.cleanPred = make([]int, n)
	c.cleanLoss = make([]float64, n)

	// The UseRanger profile and the clean references form one queue, as
	// neither depends on the other.
	refs := newSetupPhase(c.seal)
	if cfg.UseRanger {
		// Profiled tensor-wide in slices of 16, whatever the campaign's
		// batch: the bounds of formats with shared metadata depend on it.
		c.ranger = detect.NewRanger()
		refs.sweep(n, 16, (*campaignRunner).profileSlice)
	}
	refs.sweep(n, c.batch, (*campaignRunner).referenceSlice)
	c.layoutCuts(r.sim, block)
	if c.pipeline == nil && c.cuts == nil {
		return []*setupPhase{refs}, nil
	}
	// The armed clean sweep, once the ranger and the pipeline are sealed,
	// fills the cut table and measures false positives: anything the
	// pipeline flags is one (calibrated detectors are constructed not to
	// flag their own calibration pool; this measures it).
	if c.pipeline != nil {
		c.fpStats = make(map[string]metrics.DetectorStats, len(cfg.Detectors))
		for _, name := range c.pipeline.Names() {
			c.fpStats[name] = metrics.DetectorStats{FaultFreeRuns: n}
		}
	}
	armed := newSetupPhase(func() error {
		calSpan.End()
		return nil
	})
	armed.sweep(n, c.batch, (*campaignRunner).armedSlice)
	return []*setupPhase{refs, armed}, nil
}

// seal seals the detection pipeline once its calibration passes are
// folded; the UseRanger profile's folded bounds need no sealing.
func (c *calibration) seal() error {
	if c.pipeline != nil {
		return c.pipeline.FinishCalibration()
	}
	return nil
}

// setupPhase is one step of a campaign's cooperative setup: a queue of
// pool slices that the engine's workers claim from a shared counter, each
// slice running on the claiming worker's runner. The worker that completes
// the phase's last slice folds the slices' calibration passes in queue
// order — pool order within each sweep — and then runs seal (see
// engine.join).
type setupPhase struct {
	slices []setupSlice
	folds  []func() // per slice: its calibration pass's fold, or nil
	seal   func() error

	next atomic.Int64  // the next slice to claim
	left atomic.Int64  // slices not yet completed
	done chan struct{} // closed once the phase is complete
}

// setupSlice is pool samples [lo, hi) of one sweep; pass runs them on a
// worker's runner and returns the fold of the calibration pass it made, if
// any.
type setupSlice struct {
	lo, hi int
	pass   func(r *campaignRunner, x *tensor.Tensor, lo, hi int) func()
}

func newSetupPhase(seal func() error) *setupPhase {
	return &setupPhase{seal: seal, done: make(chan struct{})}
}

// sweep queues the pool's n samples in slices of up to batch samples, each
// run by pass.
func (p *setupPhase) sweep(n, batch int, pass func(r *campaignRunner, x *tensor.Tensor, lo, hi int) func()) {
	for lo := 0; lo < n; lo += batch {
		p.slices = append(p.slices, setupSlice{lo: lo, hi: min(lo+batch, n), pass: pass})
	}
	p.folds = make([]func(), len(p.slices))
	p.left.Store(int64(len(p.slices)))
}

// claim returns the next unclaimed slice's index, len(p.slices) or more
// once the queue is empty.
func (p *setupPhase) claim() int { return int(p.next.Add(1)) - 1 }

// run runs slice i on runner r, checking ctx first, so a SIGINT during
// setup aborts promptly.
func (p *setupPhase) run(ctx context.Context, r *campaignRunner, i int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s := p.slices[i]
	p.folds[i] = s.pass(r, r.geom.pool.X.Slice(s.lo, s.hi), s.lo, s.hi)
	return nil
}

// complete folds the phase's calibration passes in queue order and seals
// the phase.
func (p *setupPhase) complete() error {
	for _, fold := range p.folds {
		if fold != nil {
			fold()
		}
	}
	return p.seal()
}

// profileSlice runs one slice of the UseRanger profile under tensor-wide
// emulation: the slice is the profile's batch.
func (r *campaignRunner) profileSlice(x *tensor.Tensor, _, _ int) func() {
	hooks := emulationHooks(r.cfg.Assignment, 1)
	cal, fold := r.ranger.CalibrationHooks()
	hooks.Merge(cal)
	nn.Forward(nn.NewContext(hooks), r.sim.model, x)
	return fold
}

// referenceSlice computes the fault-free references of pool samples
// [lo, hi) under per-sample emulation, which is bit-identical per sample to
// the batch-1 references. A calibration pass of the pipeline rides the same
// forward pass: the ranger learns its bounds and ABFT its residual envelope
// from the very activations the clean references are computed on, at zero
// extra inference cost.
func (r *campaignRunner) referenceSlice(x *tensor.Tensor, lo, hi int) func() {
	hooks := emulationHooks(r.cfg.Assignment, hi-lo)
	var fold func()
	if r.pipeline != nil {
		var cal *nn.HookSet
		cal, fold = r.pipeline.CalibrationHooks()
		hooks.Merge(cal)
	}
	logits := nn.Forward(nn.NewContext(r.withTiming(hooks)), r.sim.model, x)
	copy(r.cleanPred[lo:hi], logits.ArgMaxRows())
	copy(r.cleanLoss[lo:hi], train.CrossEntropyPerSample(logits, r.geom.pool.Y[lo:hi]))
	return fold
}

// armedSlice runs the armed clean sweep over pool samples [lo, hi): a
// fault-free pass under an injected pass's hooks minus the injection (see
// armedCleanHooks). With clean-prefix reuse it runs the prefix first and
// records the slice's rows of the cut table, marking a sample full-pass
// when its prefix raised a detector event (a flag or a non-finite mark):
// skipping that prefix would drop the event from the injected pass's
// recorder. Without a pipeline it stops there. With one it continues from
// the cut in the same context, which makes one full pass, reruns from the
// cut when a comparator (DMR) needs the duplicate, and returns the fold
// that counts the slice's flags as false positives.
func (r *campaignRunner) armedSlice(x *tensor.Tensor, lo, hi int) func() {
	n := hi - lo
	var rec *detect.Recorder
	if r.pipeline != nil {
		rec = detect.NewRecorder(n)
	}
	ctx := nn.NewContext(r.withTiming(r.armedCleanHooks(n, rec)))
	var logits *tensor.Tensor
	rerun := func(ctx *nn.Context) *tensor.Tensor { return nn.Forward(ctx, r.sim.model, x) }
	if r.cuts == nil {
		logits = nn.Forward(ctx, r.sim.model, x)
	} else {
		cut := nn.ForwardRange(ctx, r.sim.root, 0, r.block, 0, x)
		copy(r.cuts.Data()[lo*cut.Len()/n:], cut.Data())
		for k := range n {
			r.fullPass[lo+k] = rec != nil && (rec.RowFlagged(k) || rec.FirstNonFiniteLayer(k) >= 0)
		}
		if rec == nil {
			return nil
		}
		logits = r.fromCut(ctx, cut)
		// The rerun's prefix, under the same hooks, is the recorded cut.
		rerun = func(ctx *nn.Context) *tensor.Tensor { return r.fromCut(ctx, r.cuts.Slice(lo, hi)) }
	}
	if r.pipeline.NeedsRerun() {
		again := rerun(nn.NewContext(r.withTiming(r.armedCleanHooks(n, detect.NewRecorder(n)))))
		r.pipeline.CompareOutputs(rec, logits, again)
	}
	stats := r.fpStats
	return func() {
		// The recorder dedupes per (detector, row), so each event is one
		// flagged fault-free inference.
		for _, e := range rec.Events() {
			d := stats[e.Detector]
			d.FalsePositives++
			stats[e.Detector] = d
		}
	}
}

// armedCleanHooks assembles the hooks of a fault-free pass over n samples
// with the pipeline armed: emulation, then protect's clamp and detectors —
// the same composition an injected pass uses, minus the injection.
func (r *campaignRunner) armedCleanHooks(n int, rec *detect.Recorder) *nn.HookSet {
	return r.protect(emulationHooks(r.cfg.Assignment, n), rec)
}

// protect registers the legacy ranger clamp and the detection pipeline,
// armed on rec, after the emulation and injection hooks h already holds, so
// faults are detected rather than prevented. rec must be non-nil when the
// runner has a pipeline.
func (r *campaignRunner) protect(h *nn.HookSet, rec *detect.Recorder) *nn.HookSet {
	if r.ranger != nil {
		h.PostForward(nn.AllLayers(), r.ranger.ClampHook())
	}
	if r.pipeline != nil {
		h.Merge(r.pipeline.Arm(rec))
	}
	return h
}

// detectorBaseline returns a report's starting per-detector stats: zero
// detections plus the campaign's measured false-positive counts (nil
// without a pipeline).
func (r *campaignRunner) detectorBaseline() map[string]metrics.DetectorStats {
	if r.pipeline == nil {
		return nil
	}
	m := make(map[string]metrics.DetectorStats, len(r.fpStats))
	for k, v := range r.fpStats {
		m[k] = v
	}
	return m
}

func (r *campaignRunner) close() {
	r.backup.Restore()
	r.scratch.release()
}

// withTiming merges the runner's per-layer timer into h as the last hook
// set, so emulation/injection/clamp hooks registered earlier fall inside
// each layer's measured window. No-op without telemetry.
func (r *campaignRunner) withTiming(h *nn.HookSet) *nn.HookSet {
	if r.timing != nil {
		h.Merge(r.timing)
	}
	return h
}

// faultDrawer draws a campaign's deterministic fault sequence from its
// seed. It is the single drawing implementation every worker (and the
// sampled selection) uses, so the sequences cannot drift apart.
type faultDrawer struct {
	src  *rng.RNG
	cfg  *CampaignConfig
	geom campaignGeom
	pos  int // index of the next injection to draw
}

// newFaultDrawer positions a drawer at the start of cfg's fault sequence
// over the resolved geometry.
func newFaultDrawer(cfg *CampaignConfig, g campaignGeom) *faultDrawer {
	return &faultDrawer{src: rng.New(cfg.Seed), cfg: cfg, geom: g}
}

// nextInto draws the next injection's fault set into dst (len geom.flips)
// without allocating.
func (d *faultDrawer) nextInto(dst []inject.Fault) {
	for j := range dst {
		if d.cfg.Site == inject.SiteAccum {
			dst[j] = inject.RandomAccumFault(d.src, d.geom.inj, d.cfg.Layer, d.geom.elems, d.geom.depth)
		} else {
			dst[j] = inject.RandomFault(d.src, d.geom.inj, d.cfg.Layer, d.geom.elems, d.cfg.Site, d.cfg.Target)
		}
		dst[j].Kind = d.cfg.FaultKind
	}
	d.pos++
}

// drawAt draws injection i's fault set into dst, discarding the draws of
// the indices before it that the drawer has not reached (a resumed
// prefix, other workers' or shards' indices). i must not be behind the
// drawer.
func (d *faultDrawer) drawAt(i int, dst []inject.Fault) {
	for d.pos < i {
		d.nextInto(dst)
	}
	d.nextInto(dst)
}

// abortedOutcome is the trace placeholder for an injection whose inference
// panicked: the faults and sample are known, the metrics are not.
func abortedOutcome(faults []inject.Fault, sample int) InjectionOutcome {
	out := InjectionOutcome{Fault: faults[0], Sample: sample, Aborted: true, FirstNonFiniteLayer: -1}
	if len(faults) > 1 {
		out.Extra = faults[1:]
	}
	return out
}
