package goldeneye

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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

	// Assignment maps layers to per-role formats (weights, activations,
	// accumulator) — the mixed-precision surface that generalizes the
	// uniform Format + EmulateNetwork + QuantizeWeights trio. When set,
	// those three legacy fields are ignored for emulation (Format is still
	// honored as an explicit injection format) and the campaign runs each
	// layer in its assigned roles. Accumulator roles are required for
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
	// injection-range shards for distributed execution: a shard (s, K)
	// executes exactly the injection indices i with i ≡ s (mod K), in
	// increasing order, drawing the full fault sequence from Seed and
	// discarding the draws it does not own. That stride assignment is the
	// same one RunCampaignParallel gives worker s of K, so K serial shard
	// reports merged by MergeShardReports are byte-identical to a
	// single-node RunCampaignParallel run at workers=K. ShardCount 0 or 1
	// means unsharded; sharded campaigns run serially on each node (the
	// fleet, not the worker pool, provides the parallelism) and are
	// incompatible with Resume.
	ShardIndex int
	ShardCount int

	// Pool is the evaluation pool; injection i uses sample i mod Pool.Len()
	// so faults spread evenly over inputs. Its Batch geometry is the
	// campaign's default injection batch size when BatchSize is unset.
	Pool *EvalPool

	// BatchSize is the number of distinct faults packed into one batched
	// forward pass (the paper's batching lever, §IV-B). Each batch row
	// carries its own fault against its own pool sample, and — because
	// format metadata is computed per row (numfmt.AxisBatch) — the report
	// is bit-identical to the batch-1 path under the same seed. 0 or 1
	// selects the serial path; weight-target campaigns always run serially
	// (weights are shared by every row of a batch). When 0, Pool.Batch is
	// used if set.
	BatchSize int

	// UseRanger enables the range detector (on by default in the paper;
	// here explicit).
	UseRanger bool

	// EmulateNetwork quantizes all CONV/LINEAR activations to Format during
	// every inference, so the campaign models a network *running in* the
	// studied format rather than FP32 with one quantized layer.
	//
	// Deprecated: use Assignment with an Activations role, which
	// generalizes this to per-layer formats. The field remains fully
	// supported and bit-identical; it is ignored when Assignment is set.
	EmulateNetwork bool

	// QuantizeWeights converts weights to Format for the campaign.
	//
	// Deprecated: use Assignment with a Weights role. Note the historical
	// semantics this flag keeps: it converts every non-frozen model
	// parameter (normalization scale/shift included), while an Assignment
	// converts only the parameters of the layers it assigns. Ignored when
	// Assignment is set.
	QuantizeWeights bool

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

	// Resume continues a previously interrupted campaign from persisted
	// state (see internal/checkpoint). The already-executed prefix of the
	// deterministic fault sequence is drawn and discarded, so a resumed
	// campaign's report is bit-identical to an uninterrupted run's.
	// Incompatible with KeepTrace (traces are not persisted).
	Resume *CampaignResume

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

// CampaignResume is the state of an interrupted campaign: how many
// injections were executed (recorded + aborted) and the aggregates they
// produced. Serial resumption continues the Welford accumulators in place,
// so the final moments carry no merge reassociation.
type CampaignResume struct {
	// Completed is the number of injections already executed — the length
	// of the fault-sequence prefix to replay without running inference.
	Completed int

	// Result is the interrupted run's aggregate over the prefix.
	Result metrics.CampaignResult

	// Detected and Aborted restore the report fields outside
	// metrics.CampaignResult.
	Detected int
	Aborted  int

	// Recovered and PerDetector restore the detection-pipeline aggregates.
	// Only the Detections/Recovered counts of PerDetector are carried
	// forward; false-positive statistics are re-measured by the resuming
	// run's calibration (deterministic, so the values are identical).
	Recovered   int
	PerDetector map[string]metrics.DetectorStats
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

// campaignRunner holds one worker's prepared campaign state: quantized
// weights, range profile, and fault-free references.
type campaignRunner struct {
	sim       *Simulator
	cfg       CampaignConfig
	pool      *EvalPool
	batch     int
	backup    *inject.WeightBackup
	ranger    *inject.RangeProfile
	cleanPred []int
	cleanLoss []float64
	geom      campaignGeom

	// emuAsg is the lowered emulation assignment every pass of this runner
	// applies (nil when the campaign emulates nothing); injFormat is the
	// resolved injection format (see campaignGeom.inj).
	emuAsg    *FormatAssignment
	injFormat numfmt.Format

	// pipeline is this runner's detection pipeline (nil without
	// cfg.Detectors). One per runner — detectors carry calibration state,
	// so parallel workers never share instances. fpStats holds the
	// false-positive counts measured on the runner's fault-free pool
	// sweep; every worker measures the identical (deterministic) values,
	// and the merge takes them from one shard only.
	pipeline *detect.Pipeline
	fpStats  map[string]metrics.DetectorStats

	// timing is this runner's per-layer forward timer (nil without
	// cfg.Metrics). One per runner because the hook closure carries
	// per-pass state; the histograms it feeds are shared and atomic.
	timing *nn.HookSet

	// scratch is this runner's reusable per-group storage (see
	// campaignScratch). One per runner — a runner is single-threaded, and
	// parallel workers each own a runner.
	scratch *campaignScratch

	// prefix is the clean-prefix memo injected passes start from (nil when
	// reuse is off; see campaign_prefix.go). prefixRows are its
	// MetricCampaignPrefixRows counters by outcome (nil without
	// cfg.Metrics).
	prefix     *prefixMemo
	prefixRows [3]*telemetry.Counter
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
	rowLen    int                    // elements per pool-input row
	xbBuf     []float32              // arena-backed storage behind every xb view
	xb        map[int]*tensor.Tensor // row count → cached view over xbBuf
	yb        []int
	idx       []int
	samples   []int
	faultBuf  []inject.Fault // batch×flips backing store for fault rows
	faultsets [][]inject.Fault
	outs      []InjectionOutcome
	errs      []error
}

// newCampaignScratch sizes a scratch for groups of up to batch rows drawn
// from pool input x, with flips faults per row.
func newCampaignScratch(x *tensor.Tensor, batch, flips int) *campaignScratch {
	rowLen := x.Len() / x.Dim(0)
	return &campaignScratch{
		rowLen:    rowLen,
		xbBuf:     campaignArena.Get(batch * rowLen),
		xb:        make(map[int]*tensor.Tensor, 2),
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
// selected rows of x copied into arena-backed storage, wrapped once per
// distinct row count (a campaign sees at most two — the full batch and the
// final partial group). The view is valid until the next gather call.
func (sc *campaignScratch) gather(x *tensor.Tensor, samples []int) *tensor.Tensor {
	rows := len(samples)
	xb := sc.xb[rows]
	if xb == nil {
		shape := append([]int{rows}, x.Shape()[1:]...)
		xb = tensor.Wrap(sc.xbBuf[:rows*sc.rowLen], shape...)
		sc.xb[rows] = xb
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
// them, while Extra aliases the runner's reused fault scratch (and, on the
// parallel path, the shared pre-drawn sequence the next resume may reuse).
func traceCopy(out InjectionOutcome) InjectionOutcome {
	if len(out.Extra) > 0 {
		out.Extra = append([]inject.Fault(nil), out.Extra...)
	}
	return out
}

// emulationAssignment lowers cfg to the format assignment its forward
// passes run under: Assignment itself when set, else the uniform-activation
// assignment the deprecated EmulateNetwork flag describes. The deprecated
// QuantizeWeights flag is deliberately not lowered — its historical
// all-parameter conversion is applied verbatim by newRunner, so legacy
// campaigns stay bit-identical.
func (cfg *CampaignConfig) emulationAssignment() *FormatAssignment {
	if cfg.Assignment != nil {
		return cfg.Assignment
	}
	if cfg.EmulateNetwork && cfg.Format != nil {
		return &FormatAssignment{Default: RoleFormats{Activations: cfg.Format}}
	}
	return nil
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
	if cfg.Format == nil && cfg.Assignment == nil {
		return fail(&ConfigError{Field: "Format", Reason: "campaign requires a format"})
	}
	if cfg.Assignment != nil {
		if err := cfg.Assignment.Validate(); err != nil {
			return fail(err)
		}
	}
	if cfg.Injections <= 0 {
		return fail(configErrf("Injections", "campaign requires a positive injection count, got %d", cfg.Injections))
	}
	if err := cfg.validateShard(); err != nil {
		return fail(err)
	}
	if err := cfg.Sampling.Validate(); err != nil {
		return fail(&ConfigError{Field: "Sampling", Reason: err.Error()})
	}
	if cfg.Sampling.Active() {
		if cfg.Resume != nil {
			return fail(configErrf("Sampling",
				"sampled campaigns do not resume (the estimator state is not checkpointed); re-run the campaign"))
		}
		if cfg.Sampling.TargetCI > 0 && cfg.sharded() {
			return fail(configErrf("Sampling",
				"sequential stopping needs the whole campaign's moments; a shard cannot stop on its own (drop TargetCI or the shard geometry)"))
		}
		if cfg.Sampling.Prune {
			switch {
			case cfg.Site != inject.SiteValue:
				return fail(configErrf("Sampling",
					"analytic pruning bounds per-bit value perturbations; it requires a value site, got %s", cfg.Site))
			case cfg.Target != inject.TargetNeuron:
				return fail(configErrf("Sampling",
					"analytic pruning compares perturbations against the layer's calibrated activation range; it requires a neuron target"))
			case cfg.FaultKind == inject.KindBurst:
				return fail(configErrf("Sampling",
					"burst faults span tensor elements and have no per-bit perturbation bound to prune with"))
			case !cfg.UseRanger:
				return fail(configErrf("Sampling",
					"analytic pruning needs the ranger's calibrated activation bounds; set UseRanger"))
			}
		}
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
	if cfg.Recovery != detect.PolicyNone && len(cfg.Detectors) == 0 {
		return fail(fmt.Errorf("goldeneye: recovery policy %s requires Detectors", cfg.Recovery))
	}
	if cfg.Resume != nil {
		if cfg.KeepTrace {
			return fail(fmt.Errorf("goldeneye: resume does not support KeepTrace campaigns"))
		}
		if cfg.Resume.Completed < 0 || cfg.Resume.Completed > cfg.Injections {
			return fail(fmt.Errorf("goldeneye: resume point %d outside campaign of %d injections",
				cfg.Resume.Completed, cfg.Injections))
		}
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
		if cfg.Target != inject.TargetNeuron {
			return fail(&ConfigError{Field: "Target",
				Reason: "accumulator faults corrupt partial sums of the layer output; they require a neuron target"})
		}
		if cfg.FaultKind == inject.KindBurst {
			return fail(&ConfigError{Field: "FaultKind",
				Reason: "burst faults span the elements of one value tensor and have no accumulator-register analogue"})
		}
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
		g.inj = cfg.Assignment.rolesFor(info, nn.DefaultLayers()).Accumulator
		return g, nil
	}
	// Value/metadata sites: resolve the injection format — the explicit
	// Format, or the assigned role matching the target at the target layer.
	g.inj = cfg.Format
	if g.inj == nil {
		info, _ := s.layerInfo(cfg.Layer)
		roles := cfg.Assignment.rolesFor(info, nn.DefaultLayers())
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

// newRunner validates cfg against the simulator and computes the
// fault-free references, checking ctx between forward passes so a SIGINT
// during setup (range profiling, clean references) aborts promptly.
// Callers must invoke close() to restore weights.
func (s *Simulator) newRunner(ctx context.Context, cfg CampaignConfig) (*campaignRunner, error) {
	g, err := s.campaignGeometry(cfg)
	if err != nil {
		return nil, err
	}
	pool := g.pool
	r := &campaignRunner{
		sim: s, cfg: cfg, pool: pool, batch: cfg.packBatch(),
		geom: g, emuAsg: cfg.emulationAssignment(), injFormat: g.inj,
	}
	if cfg.Metrics != nil {
		r.timing = layerTimingHooks(cfg.Metrics)
		r.prefixRows = prefixRowCounters(cfg.Metrics)
	}
	r.backup = inject.BackupWeights(s.model)
	// Any early exit below must restore the weights it may have quantized.
	fail := func(err error) (*campaignRunner, error) {
		r.backup.Restore()
		return nil, err
	}
	// Offline weight conversion. The deprecated QuantizeWeights flag keeps
	// its historical all-parameter semantics bit for bit; an Assignment
	// converts each assigned layer's own parameters instead.
	if cfg.Assignment != nil {
		s.applyWeightAssignment(cfg.Assignment, nn.DefaultLayers())
	} else if cfg.QuantizeWeights {
		inject.QuantizeWeights(s.model, cfg.Format)
	}
	// The detection pipeline builds after weight quantization, so
	// structural checksums (ABFT) describe the weights the campaign
	// actually runs with.
	if len(cfg.Detectors) > 0 {
		pipe, perr := detect.Build(cfg.Detectors, cfg.Recovery, s.detectTarget())
		if perr != nil {
			return fail(perr)
		}
		r.pipeline = pipe
	}
	var calSpan telemetry.Span
	if cfg.Metrics != nil && r.pipeline != nil {
		calSpan = telemetry.StartSpan(cfg.Metrics.Histogram(MetricCampaignCalibration, telemetry.DurationBuckets))
	}
	if cfg.UseRanger {
		r.ranger = inject.ProfileRanges(ctx, s.model, pool.X, 16, r.baseHooks())
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
	}

	// Fault-free reference per pool sample. Serial campaigns compute them
	// at batch 1; batched campaigns batch the sweep under per-row emulation
	// (numfmt.AxisBatch), which is bit-identical per sample to the batch-1
	// references. The detectors' calibration hooks ride the same pass:
	// the ranger learns its bounds and ABFT its residual envelope from the
	// very activations the clean references are computed on, at zero extra
	// inference cost.
	refHooks := r.baseHooks()
	if r.batch > 1 {
		refHooks = r.batchHooks()
	}
	if r.pipeline != nil {
		refHooks.Merge(r.pipeline.CalibrationHooks())
	}
	n := pool.Len()
	r.cleanPred = make([]int, n)
	r.cleanLoss = make([]float64, n)
	cleanCtx := nn.NewContext(r.withTiming(refHooks))
	for lo := 0; lo < n; lo += r.batch {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		hi := lo + r.batch
		if hi > n {
			hi = n
		}
		logits := nn.Forward(cleanCtx, s.model, pool.X.Slice(lo, hi))
		copy(r.cleanPred[lo:hi], logits.ArgMaxRows())
		copy(r.cleanLoss[lo:hi], train.CrossEntropyPerSample(logits, pool.Y[lo:hi]))
	}
	if r.pipeline != nil {
		if err := r.pipeline.FinishCalibration(); err != nil {
			return fail(err)
		}
		// One more fault-free sweep with the pipeline armed: anything it
		// flags is a false positive (calibrated detectors are constructed
		// not to flag their own calibration pool; this measures it).
		if err := r.measureFalsePositives(ctx); err != nil {
			return fail(err)
		}
		calSpan.End()
	}
	// Allocated last so the fail() paths above never strand a pooled
	// buffer; close() returns it to the arena.
	r.scratch = newCampaignScratch(pool.X, r.batch, g.flips)
	r.prefix = r.newPrefixMemo()
	return r, nil
}

// measureFalsePositives runs the armed pipeline over the fault-free pool
// and records per-detector false-positive counts. The sweep is
// deterministic, so every parallel worker measures identical values.
func (r *campaignRunner) measureFalsePositives(ctx context.Context) error {
	n := r.pool.Len()
	stats := make(map[string]metrics.DetectorStats, len(r.cfg.Detectors))
	for _, name := range r.pipeline.Names() {
		stats[name] = metrics.DetectorStats{FaultFreeRuns: n}
	}
	needRerun := r.pipeline.NeedsRerun()
	for lo := 0; lo < n; lo += r.batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + r.batch
		if hi > n {
			hi = n
		}
		rec := detect.NewRecorder(hi - lo)
		hooks := r.armedCleanHooks(rec)
		x := r.pool.X.Slice(lo, hi)
		logits := nn.Forward(nn.NewContext(r.withTiming(hooks)), r.sim.model, x)
		if needRerun {
			redo := r.armedCleanHooks(detect.NewRecorder(hi - lo))
			again := nn.Forward(nn.NewContext(r.withTiming(redo)), r.sim.model, x)
			r.pipeline.CompareOutputs(rec, logits, again)
		}
		// The recorder dedupes per (detector, row), so each event is one
		// flagged fault-free inference.
		for _, e := range rec.Events() {
			d := stats[e.Detector]
			d.FalsePositives++
			stats[e.Detector] = d
		}
	}
	r.fpStats = stats
	return nil
}

// armedCleanHooks assembles a fault-free pass's hooks with the pipeline
// armed: emulation (per-row when batched), the legacy ranger clamp if
// enabled, then the detectors — the same composition an injected pass uses,
// minus the injection.
func (r *campaignRunner) armedCleanHooks(rec *detect.Recorder) *nn.HookSet {
	var hooks *nn.HookSet
	if r.batch > 1 {
		hooks = r.batchHooks()
	} else {
		hooks = r.baseHooks()
	}
	if r.ranger != nil {
		hooks.PostForward(nn.AllLayers(), r.ranger.ClampHook())
	}
	if r.pipeline != nil {
		hooks.Merge(r.pipeline.Arm(rec))
	}
	return hooks
}

// detectorBaseline returns a report's starting per-detector stats: zero
// detections plus the runner's measured false-positive counts (nil without
// a pipeline).
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
	r.prefix.release()
}

// baseHooks assembles the serial-pass emulation hooks from the campaign's
// lowered assignment: activation hooks carrying each format's fused-kernel
// epilogue (tensor-wide metadata axis), plus accumulator-format rounding on
// GEMM-backed layers. A legacy EmulateNetwork campaign lowers to a uniform
// activation assignment and registers the exact hook it always has; the
// whole-tensor Emulate closure remains the fused epilogue's fallback and
// the two are pinned bit-identical.
func (r *campaignRunner) baseHooks() *nn.HookSet {
	return r.emulationHooks(numfmt.AxisTensor)
}

// batchHooks is baseHooks for batched passes: activation emulation runs
// per batch row (numfmt.AxisBatch), so each row's metadata — INT scale,
// AFP bias, BFP shared exponents — is computed from that row alone and the
// row stays bit-identical to its batch-1 inference. Accumulator-format
// rounding is per element and needs no axis distinction.
func (r *campaignRunner) batchHooks() *nn.HookSet {
	return r.emulationHooks(numfmt.AxisBatch)
}

func (r *campaignRunner) emulationHooks(axis numfmt.MetaAxis) *nn.HookSet {
	h := nn.NewHookSet()
	addActivationHooks(h, r.emuAsg, axis, nn.DefaultLayers())
	addAccumHooks(h, r.emuAsg, nn.DefaultLayers())
	return h
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
// seed. It is the single drawing implementation shared by the serial and
// parallel paths (and by resume-prefix replay), so the sequences cannot
// drift apart.
type faultDrawer struct {
	src  *rng.RNG
	cfg  *CampaignConfig
	geom campaignGeom
}

// newFaultDrawer positions a drawer at the start of cfg's fault sequence
// over the resolved geometry.
func newFaultDrawer(cfg *CampaignConfig, g campaignGeom) *faultDrawer {
	return &faultDrawer{src: rng.New(cfg.Seed), cfg: cfg, geom: g}
}

// next produces the next injection's fault set in fresh storage.
func (d *faultDrawer) next() []inject.Fault {
	faults := make([]inject.Fault, d.geom.flips)
	d.nextInto(faults)
	return faults
}

// nextInto draws the next injection's fault set into dst (len geom.flips),
// consuming exactly the RNG stream next would — the allocation-free form
// the batched loop uses with its scratch rows.
func (d *faultDrawer) nextInto(dst []inject.Fault) {
	for j := range dst {
		if d.cfg.Site == inject.SiteAccum {
			dst[j] = inject.RandomAccumFault(d.src, d.geom.inj, d.cfg.Layer, d.geom.elems, d.geom.depth)
		} else {
			dst[j] = inject.RandomFault(d.src, d.geom.inj, d.cfg.Layer, d.geom.elems, d.cfg.Site, d.cfg.Target)
		}
		dst[j].Kind = d.cfg.FaultKind
	}
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

// runOne executes one injected inference and returns its outcome. Weight
// corruption is undone via defer so that a panic inside the forward pass
// (recovered by runIsolated) cannot leak corrupted weights into the next
// injection.
func (r *campaignRunner) runOne(faults []inject.Fault, sample int) (out InjectionOutcome, err error) {
	cfg := r.cfg
	out.FirstNonFiniteLayer = -1
	hooks := r.baseHooks()
	switch {
	case cfg.Site == inject.SiteAccum:
		// Registered after the emulation accum entries, so the layer's
		// assigned accumulator rounding stays first in the merged spec and
		// the faults corrupt the quantized reduction.
		spec := nn.AccumSpec{Faults: inject.AccumFaultsFor(r.injFormat, faults, 0)}
		hooks.Accum(nn.ByIndex(cfg.Layer), func(nn.LayerInfo) nn.AccumSpec { return spec })
	case cfg.Target == inject.TargetNeuron:
		hooks.PostForward(nn.ByIndex(cfg.Layer), inject.NeuronHookMulti(r.injFormat, faults))
	default:
		var restores []func()
		// Undo weight corruption in reverse order so overlapping faults
		// restore correctly — deferred, so panic unwinding restores too.
		defer func() {
			for j := len(restores) - 1; j >= 0; j-- {
				restores[j]()
			}
		}()
		for _, fault := range faults {
			restore, ferr := inject.WeightFault(r.injFormat, fault, r.sim.widx)
			if ferr != nil {
				return out, ferr
			}
			restores = append(restores, restore)
		}
	}
	if r.ranger != nil {
		hooks.PostForward(nn.AllLayers(), r.ranger.ClampHook())
	}
	var rec *detect.Recorder
	if r.pipeline != nil {
		// Armed after the injection hook, so faults are detected rather
		// than prevented (same registration rule as the ranger clamp).
		rec = detect.NewRecorder(1)
		hooks.Merge(r.pipeline.Arm(rec))
	}

	pass := r.groupPass([]int{sample}, false, func() *tensor.Tensor { return r.pool.X.Slice(sample, sample+1) })
	logits := pass(hooks)

	// Re-execution without the transient fault, shared by legacy
	// MeasureDMR, the pipeline's DMR comparator, and RecoverReexecute.
	// Weight corruption is still in place, so it escapes DMR detection and
	// survives re-execution (as the real techniques would).
	var again *tensor.Tensor
	runRedo := func() *tensor.Tensor {
		redo := r.baseHooks()
		if r.ranger != nil {
			redo.PostForward(nn.AllLayers(), r.ranger.ClampHook())
		}
		if r.pipeline != nil {
			// Mirror the faulty pass's protection context; detections on
			// the clean duplicate are discarded.
			redo.Merge(r.pipeline.Arm(detect.NewRecorder(1)))
		}
		return pass(redo)
	}
	if cfg.MeasureDMR || (r.pipeline != nil && r.pipeline.NeedsRerun()) {
		again = runRedo()
		if cfg.MeasureDMR {
			out.Detected = !again.AllClose(logits, 0)
		}
		if r.pipeline != nil {
			r.pipeline.CompareOutputs(rec, logits, again)
		}
	}

	out.Fault = faults[0]
	out.Sample = sample
	if len(faults) > 1 {
		out.Extra = faults[1:]
	}
	detected := false
	if rec != nil {
		out.DetectedBy = rec.DetectedBy(0)
		out.FirstNonFiniteLayer = rec.FirstNonFiniteLayer(0)
		detected = len(out.DetectedBy) > 0
		if detected {
			out.Detected = true
		}
	}
	final := logits
	if detected {
		switch r.pipeline.Policy() {
		case detect.PolicyAbort:
			out.Aborted = true
			return out, nil
		case detect.PolicyReexecute:
			if again == nil {
				again = runRedo()
			}
			final = again
		}
	}

	faultyLoss := train.CrossEntropyPerSample(final, r.pool.Y[sample:sample+1])[0]
	out.Mismatch = final.ArgMaxRows()[0] != r.cleanPred[sample]
	out.DeltaLoss = metrics.DeltaLoss(r.cleanLoss[sample], faultyLoss)
	out.NonFinite = final.CountNonFinite() > 0 || out.FirstNonFiniteLayer >= 0
	if detected && r.pipeline.Policy() != detect.PolicyNone {
		out.Recovered = !out.Mismatch
	}
	return out, nil
}

// runIsolated executes one injection with panic isolation: a panic inside
// the injected inference is recovered and converted into an
// *InjectionError carrying the shard index and the offending fault, so one
// corrupted injection degrades the campaign instead of killing the process.
func (r *campaignRunner) runIsolated(shard, injection int, faults []inject.Fault, sample int) (out InjectionOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			out = abortedOutcome(faults, sample)
			err = &InjectionError{Shard: shard, Injection: injection, Fault: faults[0], Panic: p}
		}
	}()
	return r.runOne(faults, sample)
}

// runBatch executes a group of injections — injection idx[k] applies
// faultsets[k] to pool sample samples[k] — in one batched forward pass,
// returning per-injection outcomes and errors positionally. Each batch row
// carries its own fault under per-row format metadata, so every outcome is
// bit-identical to the serial batch-1 path. If anything inside the batched
// pass panics, the whole group falls back to per-injection serial
// execution, which reproduces the non-aborting rows bit-identically and
// confines the abort to the offending injection(s).
func (r *campaignRunner) runBatch(shard int, idx []int, faultsets [][]inject.Fault, samples []int) ([]InjectionOutcome, []error) {
	// Scratch-backed: valid until the runner's next runBatch call, which is
	// after the caller has folded them into its report.
	outs := r.scratch.outs[:len(idx)]
	errs := r.scratch.errs[:len(idx)]
	for k := range outs {
		outs[k] = InjectionOutcome{}
		errs[k] = nil
	}
	serially := func() {
		for k := range idx {
			outs[k], errs[k] = r.runIsolated(shard, idx[k], faultsets[k], samples[k])
		}
	}
	if len(idx) == 1 || r.cfg.Target != inject.TargetNeuron {
		serially()
		return outs, errs
	}
	if !r.tryRunBatch(faultsets, samples, outs) {
		serially()
	}
	return outs, errs
}

// tryRunBatch attempts the batched pass proper; false means a panic was
// recovered and the caller must re-run the group serially.
func (r *campaignRunner) tryRunBatch(faultsets [][]inject.Fault, samples []int, outs []InjectionOutcome) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			ok = false
		}
	}()
	cfg := r.cfg
	rows := len(samples)
	pass := r.groupPass(samples, true, func() *tensor.Tensor { return r.scratch.gather(r.pool.X, samples) })
	yb := r.scratch.yb[:rows]
	for k, s := range samples {
		yb[k] = r.pool.Y[s]
	}
	// Same hook registration order as the serial path: emulation, then
	// injection at the target layer, then the range detector's clamp, then
	// the detection pipeline. Detection and recovery are row-confined, so
	// every row stays bit-identical to its serial batch-1 inference.
	hooks := r.batchHooks()
	if cfg.Site == inject.SiteAccum {
		// One accumulator spec covers the whole pass: row k's faults land
		// on batch row k of the target layer's GEMM, so each injection
		// corrupts only its own sample's reduction.
		var afs []nn.AccumFault
		for k, fs := range faultsets {
			afs = append(afs, inject.AccumFaultsFor(r.injFormat, fs, k)...)
		}
		spec := nn.AccumSpec{Faults: afs}
		hooks.Accum(nn.ByIndex(cfg.Layer), func(nn.LayerInfo) nn.AccumSpec { return spec })
	} else {
		hooks.PostForward(nn.ByIndex(cfg.Layer), inject.NeuronHookBatched(r.injFormat, faultsets))
	}
	if r.ranger != nil {
		hooks.PostForward(nn.AllLayers(), r.ranger.ClampHook())
	}
	var rec *detect.Recorder
	if r.pipeline != nil {
		rec = detect.NewRecorder(rows)
		hooks.Merge(r.pipeline.Arm(rec))
	}
	logits := pass(hooks)
	var again *tensor.Tensor
	runRedo := func() *tensor.Tensor {
		redo := r.batchHooks()
		if r.ranger != nil {
			redo.PostForward(nn.AllLayers(), r.ranger.ClampHook())
		}
		if r.pipeline != nil {
			redo.Merge(r.pipeline.Arm(detect.NewRecorder(rows)))
		}
		return pass(redo)
	}
	if cfg.MeasureDMR || (r.pipeline != nil && r.pipeline.NeedsRerun()) {
		again = runRedo()
		if r.pipeline != nil {
			r.pipeline.CompareOutputs(rec, logits, again)
		}
	}
	// RecoverReexecute delivers the clean duplicate's rows for flagged
	// injections; reuse the DMR rerun when one already exists.
	if rec != nil && r.pipeline.Policy() == detect.PolicyReexecute && again == nil && rec.AnyFlagged() {
		again = runRedo()
	}
	preds := logits.ArgMaxRows()
	losses := train.CrossEntropyPerSample(logits, yb)
	nonFinite := logits.NonFiniteRows()
	var redoPreds []int
	var redoLosses []float64
	var redoNonFinite []int
	if again != nil {
		redoPreds = again.ArgMaxRows()
		redoLosses = train.CrossEntropyPerSample(again, yb)
		redoNonFinite = again.NonFiniteRows()
	}
	for k := range outs {
		out := InjectionOutcome{
			Fault:               faultsets[k][0],
			Sample:              samples[k],
			FirstNonFiniteLayer: -1,
		}
		if len(faultsets[k]) > 1 {
			out.Extra = faultsets[k][1:]
		}
		if cfg.MeasureDMR && again != nil {
			out.Detected = !again.Slice(k, k+1).AllClose(logits.Slice(k, k+1), 0)
		}
		detected := false
		if rec != nil {
			out.DetectedBy = rec.DetectedBy(k)
			out.FirstNonFiniteLayer = rec.FirstNonFiniteLayer(k)
			detected = len(out.DetectedBy) > 0
			if detected {
				out.Detected = true
			}
		}
		pred, loss, nf := preds[k], losses[k], nonFinite[k] > 0
		if detected {
			switch r.pipeline.Policy() {
			case detect.PolicyAbort:
				out.Aborted = true
				outs[k] = out
				continue
			case detect.PolicyReexecute:
				pred, loss, nf = redoPreds[k], redoLosses[k], redoNonFinite[k] > 0
			}
		}
		out.Mismatch = pred != r.cleanPred[samples[k]]
		out.DeltaLoss = metrics.DeltaLoss(r.cleanLoss[samples[k]], loss)
		out.NonFinite = nf || out.FirstNonFiniteLayer >= 0
		if detected && r.pipeline.Policy() != detect.PolicyNone {
			out.Recovered = !out.Mismatch
		}
		outs[k] = out
	}
	return true
}

// RunCampaign executes the configured campaign and returns its report. The
// model's weights are restored to their pre-campaign values before
// returning.
//
// Lifecycle semantics:
//   - Batching: with cfg.BatchSize > 1 (or a Pool.Batch geometry), up to
//     BatchSize distinct neuron faults share one batched forward pass,
//     each against its own pool sample under per-row format metadata. The
//     report — aggregates, Detected/Aborted counts, and trace — is
//     bit-identical to the serial batch-1 path under the same seed.
//   - Cancellation: ctx is checked cooperatively before every injection
//     group (every injection when serial); on cancellation the partial
//     report (aggregating exactly the completed prefix, Interrupted set)
//     is returned together with ctx.Err().
//   - Panic isolation: an injection whose inference panics is recovered,
//     counted in the report's Aborted field, and the campaign continues in
//     degraded mode until more than cfg.MaxAborts injections abort. A
//     panic inside a batched pass re-runs that group serially, so the
//     abort lands on the offending injection only.
//   - Resume: with cfg.Resume, the already-executed fault prefix is drawn
//     but not re-run and the Welford accumulators continue from the
//     persisted state, so the final report is bit-identical to an
//     uninterrupted run's.
func (s *Simulator) RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// An inert sampling plan is indistinguishable from no plan; normalize
	// it away so the report — wire bytes included — stays byte-identical to
	// an exhaustive campaign's.
	if !cfg.Sampling.Active() {
		cfg.Sampling = nil
	}
	runner, err := s.newRunner(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer runner.close()

	report := &CampaignReport{Config: cfg, PerDetector: runner.detectorBaseline()}
	sel := runner.buildSelection()
	if sel != nil {
		report.Sampling = sel.emptyReport()
	}
	skip := 0
	if cfg.Resume != nil {
		skip = cfg.Resume.Completed
		report.CampaignResult = cfg.Resume.Result
		report.Detected = cfg.Resume.Detected
		report.Aborted = cfg.Resume.Aborted
		report.Recovered = cfg.Resume.Recovered
		report.PerDetector = mergeResumeDetectors(report.PerDetector, cfg.Resume.PerDetector)
	}
	drawer := newFaultDrawer(&cfg, runner.geom)
	n := runner.pool.Len()
	batch := runner.batch
	// The injection indices this run owns and executes. Unsharded, that is
	// every index past a resumed prefix; a shard (s, K) owns the stride
	// slice i ≡ s (mod K) — exactly worker s's assignment under
	// RunCampaignParallel at workers=K, so shard reports merge
	// byte-identically to a single-node parallel run (Resume and sharding
	// are mutually exclusive, so skip is zero here when sharded). A sampled
	// campaign additionally drops the owned indices its selection skips or
	// prunes.
	owns := func(i int) bool { return !cfg.sharded() || i%cfg.ShardCount == cfg.ShardIndex }
	mine := make([]int, 0, cfg.PlannedInjections())
	for i := skip; i < cfg.Injections; i++ {
		if owns(i) && sel.executed(i) {
			mine = append(mine, i)
		}
	}
	// Progress totals cover the injections this run executes plus a resumed
	// prefix; unsharded and unsampled that is exactly cfg.Injections.
	planned := skip + len(mine)
	ct := newCampaignTelemetry(cfg.Metrics, planned, detect.Names(cfg.Detectors))
	// The fault sequence is always drawn from index 0 in serial order; draws
	// this run does not execute (a resumed prefix, other shards' indices)
	// are consumed into a discard row so owned faults stay bit-identical to
	// an unsharded run's. drawPos is the next sequence index to be drawn.
	discard := make([]inject.Fault, runner.geom.flips)
	drawPos := 0
	advanceTo := func(i int) {
		for ; drawPos < i; drawPos++ {
			drawer.nextInto(discard)
		}
	}
	if cfg.Progress != nil && skip > 0 {
		cfg.Progress(skip, planned)
	}
	// A sampled campaign's dispatch (drawn/pruned/skipped per stratum) is a
	// pure function of the selection, so the whole owned fault space is
	// accounted before any forward pass. The population the estimator
	// targets is therefore always the full fault space: at a review
	// boundary the executed prefix is the sample, the remaining selected
	// mass keeps the finite-population correction below one, and an early
	// stop leaves Drawn > Pruned+Skipped+Executed+Aborted in the strata the
	// stop cut short.
	if sel != nil {
		sel.account(report.Sampling, skip, cfg.Injections, owns)
	}
	// Sequential-stopping review windows: one window covering the whole
	// campaign normally; a TargetCI campaign reviews its interval at every
	// CheckEvery boundary.
	bounds := stopBounds(cfg.Sampling, cfg.Injections)
	mstart := 0
	for _, bound := range bounds {
		mend := mstart
		for mend < len(mine) && mine[mend] < bound {
			mend++
		}
		for base := mstart; base < mend; base += batch {
			if err := ctx.Err(); err != nil {
				report.Interrupted = true
				return report, err
			}
			hi := base + batch
			if hi > mend {
				hi = mend
			}
			rows := hi - base
			idx := runner.scratch.idx[:rows]
			faultsets := runner.scratch.faultsets[:rows]
			samples := runner.scratch.samples[:rows]
			for k := 0; k < rows; k++ {
				i := mine[base+k]
				idx[k] = i
				advanceTo(i)
				faultsets[k] = runner.scratch.faultRow(k, runner.geom.flips)
				drawer.nextInto(faultsets[k])
				drawPos++
				samples[k] = i % n
			}
			start := time.Now()
			outs, errs := runner.runBatch(0, idx, faultsets, samples)
			// Latency accounting stays per injection so the histogram's count
			// matches the injection counters in both modes; a batched pass
			// amortizes its wall time evenly over its rows.
			per := time.Since(start) / time.Duration(rows)
			if cfg.Progress != nil {
				cfg.Progress(skip+hi, planned)
			}
			if batch > 1 {
				ct.recordBatch(rows, batch)
			}
			for k := 0; k < rows; k++ {
				if errs[k] != nil {
					var ie *InjectionError
					if !errors.As(errs[k], &ie) {
						return nil, errs[k]
					}
					report.Aborted++
					ct.recordAborted()
					if sel != nil {
						sel.observe(report.Sampling, idx[k], outs[k])
						outs[k].Index = idx[k]
					}
					if cfg.KeepTrace {
						report.Trace = append(report.Trace, traceCopy(outs[k]))
					}
					if cfg.MaxAborts > 0 && report.Aborted > cfg.MaxAborts {
						return report, fmt.Errorf("goldeneye: %d aborted injections exceed MaxAborts=%d: %w",
							report.Aborted, cfg.MaxAborts, ie)
					}
					continue
				}
				out := outs[k]
				if sel != nil {
					sel.observe(report.Sampling, idx[k], out)
					out.Index = idx[k]
				}
				if out.Aborted {
					// A RecoverAbort detection discarded this inference: counted
					// in Aborted (and the detector breakdown) but excluded from
					// the metric aggregates and the MaxAborts threshold.
					report.Aborted++
					report.Detected++
					ct.recordAborted()
					ct.recordDetections(out.DetectedBy, false)
					report.recordDetections(out)
					if cfg.KeepTrace {
						report.Trace = append(report.Trace, traceCopy(out))
					}
					continue
				}
				ct.record(out.Mismatch, out.NonFinite, out.Detected, per)
				ct.recordDetections(out.DetectedBy, out.Recovered)
				report.Record(out.Mismatch, out.DeltaLoss, out.NonFinite)
				if out.Detected {
					report.Detected++
				}
				if out.Recovered {
					report.Recovered++
				}
				report.recordDetections(out)
				if cfg.KeepTrace {
					report.Trace = append(report.Trace, traceCopy(out))
				}
			}
		}
		mstart = mend
		if sel != nil && cfg.Sampling.TargetCI > 0 && bound < cfg.Injections &&
			report.Sampling.CIHalfWidth() <= cfg.Sampling.TargetCI {
			report.Sampling.StopIndex = bound
			break
		}
	}
	ct.publishSampling(report.Sampling)
	ct.publishCoverage(report)
	return report, nil
}

// RunCampaignParallel shards a campaign across worker simulators built by
// build (each must wrap an identical, independently allocated model — e.g.
// a fresh zoo load). The fault sequence is drawn up front from cfg.Seed, so
// the injected faults are exactly those of the serial RunCampaign; only
// floating-point aggregation order differs (Welford merge).
//
// Batching composes with sharding: each worker packs its stride-assigned
// injection indices into cfg.BatchSize-row passes, so total throughput
// scales with both levers while the merged report stays bit-identical to
// the serial campaign's (modulo the documented Welford merge order).
//
// The lifecycle semantics of RunCampaign apply per worker: cancellation
// stops every worker at its next injection boundary and returns the merged
// partial report with ctx.Err(); a panicking injection aborts only that
// injection (the sibling workers continue); and a worker goroutine that
// panics outside an injection surfaces as that shard's error rather than
// crashing the process. The MaxAborts threshold is enforced across all
// workers combined.
func RunCampaignParallel(ctx context.Context, cfg CampaignConfig, workers int, build func() (*Simulator, error)) (*CampaignReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Normalize an inert sampling plan away before anything else (the serial
	// delegation below does the same), so the plan's presence cannot perturb
	// exhaustive-campaign byte identity.
	if !cfg.Sampling.Active() {
		cfg.Sampling = nil
	}
	if workers <= 1 {
		sim, err := build()
		if err != nil {
			return nil, err
		}
		return sim.RunCampaign(ctx, cfg)
	}
	if cfg.sharded() {
		// A shard is already one stride slice of the campaign; running it
		// across a worker pool would nest two stride assignments and break
		// the byte-identity contract MergeShardReports depends on. The
		// fleet, not the per-node worker pool, provides the parallelism.
		return nil, configErrf("ShardCount",
			"sharded campaigns run serially (workers=1); got workers=%d for shard %d/%d",
			workers, cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.Injections < workers {
		workers = cfg.Injections
	}

	// Draw the full fault sequence once, in serial order, so the injected
	// faults are bit-identical to the serial campaign's.
	scout, err := build()
	if err != nil {
		return nil, err
	}
	g, err := scout.campaignGeometry(cfg)
	if err != nil {
		return nil, err
	}
	drawer := newFaultDrawer(&cfg, g)
	allFaults := make([][]inject.Fault, cfg.Injections)
	for i := range allFaults {
		allFaults[i] = drawer.next()
	}
	skip := 0
	if cfg.Resume != nil {
		skip = cfg.Resume.Completed
	}

	// A sampled campaign computes its selection once, up front, on a runner
	// built from the scout (the selection needs the ranger bounds the prune
	// mask derives from). Worker 0 adopts that runner instead of building
	// its own — the setup work (weight quantization, calibration, clean
	// references) is deterministic, so the adoption changes nothing but
	// avoids repeating it.
	var scoutRunner *campaignRunner
	var sel *campaignSelection
	if cfg.Sampling != nil {
		scoutRunner, err = scout.newRunner(ctx, cfg)
		if err != nil {
			return nil, err
		}
		sel = scoutRunner.buildSelection()
	}
	progressTotal := cfg.Injections
	if sel != nil {
		progressTotal = sel.executedCount()
	}

	// Progress aggregates across workers through one shared counter; the
	// callback sees a monotonic cumulative count, never per-shard values.
	var progressDone atomic.Int64
	progressDone.Store(int64(skip))
	reportProgress := func(executed int) {
		if cfg.Progress == nil {
			return
		}
		cfg.Progress(int(progressDone.Add(int64(executed))), progressTotal)
	}
	if cfg.Progress != nil && skip > 0 {
		cfg.Progress(skip, progressTotal)
	}

	// A worker hitting a fatal error (abort threshold, failed build) stops
	// its siblings at their next injection boundary instead of letting
	// them run the campaign to completion for a result that is discarded.
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()

	type shard struct {
		report      *CampaignReport
		err         error
		interrupted bool

		// fp is the worker's fault-free false-positive baseline. Every
		// worker measures the identical (deterministic) sweep, so the merge
		// takes it from one shard only.
		fp map[string]metrics.DetectorStats
	}
	n := g.pool.Len()
	ct := newCampaignTelemetry(cfg.Metrics, progressTotal, detect.Names(cfg.Detectors))
	shards := make([]shard, workers)
	// Sequential stopping runs the workers in lockstep review rounds: after
	// each round's window, the last worker to arrive merges every worker's
	// estimator state (safe: the others are parked on the barrier, and a
	// departed worker published its report before leaving) and decides
	// whether the campaign stops at that boundary.
	bounds := stopBounds(cfg.Sampling, cfg.Injections)
	var barrier *ciBarrier
	if sel != nil && cfg.Sampling.TargetCI > 0 {
		barrier = newCIBarrier(workers, func(round int) int {
			bound := bounds[round]
			if bound >= cfg.Injections {
				return 0 // final boundary: nothing left to stop early
			}
			reviewed := sel.emptyReport()
			for i := range shards {
				if shards[i].report != nil && shards[i].report.Sampling != nil {
					// Same strata by construction; Merge cannot fail.
					_ = reviewed.Merge(shards[i].report.Sampling)
				}
			}
			if reviewed.CIHalfWidth() <= cfg.Sampling.TargetCI {
				return bound
			}
			return 0
		})
	}
	var aborted atomic.Int64
	if cfg.Resume != nil {
		// Prior aborts count toward the shared threshold.
		aborted.Store(int64(cfg.Resume.Aborted))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Last line of defense: a panic outside the per-injection
			// isolation (runner setup, telemetry) becomes the shard's
			// error instead of crashing the whole process.
			defer func() {
				if p := recover(); p != nil {
					shards[w].err = fmt.Errorf("worker panicked outside an injection: %v", p)
					stopWorkers()
				}
			}()
			// Exactly once per worker, on every exit path — error, abort
			// threshold, cancellation, normal completion — so workers parked
			// on a review round never wait for a departed sibling.
			if barrier != nil {
				defer barrier.leave()
			}
			if cfg.Metrics != nil {
				// Per-worker shard wall time, for spotting stragglers in
				// the metrics dump.
				shardGauge := cfg.Metrics.Gauge(telemetry.Label(MetricCampaignShardTime, "worker", strconv.Itoa(w)))
				defer func(start time.Time) { shardGauge.Set(time.Since(start).Seconds()) }(time.Now())
			}
			sim := scout
			if w > 0 { // reuse the scout for worker 0
				var berr error
				sim, berr = build()
				if berr != nil {
					shards[w].err = berr
					stopWorkers()
					return
				}
			}
			// Worker 0 adopts the pre-built scout runner of a sampled
			// campaign (see above); every other worker prepares its own.
			runner := scoutRunner
			if w != 0 || runner == nil {
				var rerr error
				runner, rerr = sim.newRunner(wctx, cfg)
				if rerr != nil {
					if wctx.Err() != nil && errors.Is(rerr, wctx.Err()) {
						shards[w].interrupted = true
						shards[w].report = &CampaignReport{}
						return
					}
					shards[w].err = rerr
					stopWorkers()
					return
				}
			}
			defer runner.close()
			shards[w].fp = runner.detectorBaseline()
			var shardWork *telemetry.Counter
			if cfg.Metrics != nil {
				shardWork = cfg.Metrics.Counter(telemetry.Label(MetricCampaignShardWork, "worker", strconv.Itoa(w)))
			}
			rep := &CampaignReport{}
			if sel != nil {
				rep.Sampling = sel.emptyReport()
			}
			// Published before the loop so the stopping barrier's check can
			// read this worker's estimator state; the barrier's mutex orders
			// those reads against the writes below.
			shards[w].report = rep
			// The worker's stride-assigned injection indices — minus, for a
			// sampled campaign, the ones the selection skips or prunes —
			// batched into groups of the campaign's pack size. Grouping
			// non-contiguous indices is fine: each row is an independent
			// (fault, sample) pair, and trace order within the shard stays
			// the stride order the merge below expects.
			var mine []int
			for i := w; i < cfg.Injections; i += workers {
				if i >= skip && sel.executed(i) {
					mine = append(mine, i)
				}
			}
			// The worker's whole stride slice is accounted up front (dispatch
			// is analytic); the estimator's population is the full fault
			// space even when a review boundary stops execution early.
			if sel != nil {
				sel.account(rep.Sampling, skip, cfg.Injections,
					func(i int) bool { return i%workers == w })
			}
			batch := runner.batch
			mstart := 0
		rounds:
			for round, bound := range bounds {
				mend := mstart
				for mend < len(mine) && mine[mend] < bound {
					mend++
				}
				for base := mstart; base < mend; base += batch {
					if wctx.Err() != nil {
						shards[w].interrupted = true
						break rounds
					}
					hi := base + batch
					if hi > mend {
						hi = mend
					}
					idx := mine[base:hi]
					faultsets := runner.scratch.faultsets[:len(idx)]
					samples := runner.scratch.samples[:len(idx)]
					for k, i := range idx {
						faultsets[k] = allFaults[i]
						samples[k] = i % n
					}
					start := time.Now()
					outs, errsB := runner.runBatch(w, idx, faultsets, samples)
					per := time.Since(start) / time.Duration(len(idx))
					reportProgress(len(idx))
					if batch > 1 {
						ct.recordBatch(len(idx), batch)
					}
					for k := range idx {
						if errsB[k] != nil {
							var ie *InjectionError
							if !errors.As(errsB[k], &ie) {
								shards[w].err = errsB[k]
								stopWorkers()
								return
							}
							total := aborted.Add(1)
							ct.recordAborted()
							rep.Aborted++
							if sel != nil {
								sel.observe(rep.Sampling, idx[k], outs[k])
								outs[k].Index = idx[k]
							}
							if cfg.KeepTrace {
								rep.Trace = append(rep.Trace, traceCopy(outs[k]))
							}
							if cfg.MaxAborts > 0 && total > int64(cfg.MaxAborts) {
								shards[w].report = rep
								shards[w].err = fmt.Errorf("%d aborted injections exceed MaxAborts=%d: %w",
									total, cfg.MaxAborts, ie)
								stopWorkers()
								return
							}
							continue
						}
						out := outs[k]
						if sel != nil {
							sel.observe(rep.Sampling, idx[k], out)
							out.Index = idx[k]
						}
						if out.Aborted {
							// RecoverAbort discard: counted in Aborted and the
							// detector breakdown, excluded from aggregates and
							// the shared MaxAborts threshold.
							rep.Aborted++
							rep.Detected++
							ct.recordAborted()
							ct.recordDetections(out.DetectedBy, false)
							rep.recordDetections(out)
							if cfg.KeepTrace {
								rep.Trace = append(rep.Trace, traceCopy(out))
							}
							continue
						}
						ct.record(out.Mismatch, out.NonFinite, out.Detected, per)
						ct.recordDetections(out.DetectedBy, out.Recovered)
						if shardWork != nil {
							shardWork.Inc()
						}
						rep.Record(out.Mismatch, out.DeltaLoss, out.NonFinite)
						if out.Detected {
							rep.Detected++
						}
						if out.Recovered {
							rep.Recovered++
						}
						rep.recordDetections(out)
						if cfg.KeepTrace {
							rep.Trace = append(rep.Trace, traceCopy(out))
						}
					}
				}
				mstart = mend
				if barrier != nil && barrier.await(round) > 0 {
					break
				}
			}
		}(w)
	}
	wg.Wait()

	// Fatal shard errors take precedence over partial results.
	for w, sh := range shards {
		if sh.err != nil {
			// Wrap with the shard index so a failed campaign is
			// diagnosable from the progress output (which shard stalled,
			// which worker's build failed).
			return nil, fmt.Errorf("goldeneye: campaign worker %d/%d: %w", w, workers, sh.err)
		}
	}
	merged := &CampaignReport{Config: cfg}
	// The false-positive baseline is deterministic and identical across
	// workers, so it merges from one shard only; per-shard detections and
	// recoveries sum on top of it.
	for _, sh := range shards {
		if sh.fp != nil {
			merged.PerDetector = sh.fp
			break
		}
	}
	if cfg.Resume != nil {
		merged.CampaignResult = cfg.Resume.Result
		merged.Detected = cfg.Resume.Detected
		merged.Aborted = cfg.Resume.Aborted
		merged.Recovered = cfg.Resume.Recovered
		merged.PerDetector = mergeResumeDetectors(merged.PerDetector, cfg.Resume.PerDetector)
	}
	if cfg.KeepTrace && sel == nil {
		merged.Trace = make([]InjectionOutcome, cfg.Injections)
	}
	if sel != nil {
		merged.Sampling = sel.emptyReport()
	}
	for w, sh := range shards {
		merged.Interrupted = merged.Interrupted || sh.interrupted
		merged.CampaignResult.Merge(sh.report.CampaignResult)
		merged.Detected += sh.report.Detected
		merged.Aborted += sh.report.Aborted
		merged.Recovered += sh.report.Recovered
		merged.PerDetector = mergeResumeDetectors(merged.PerDetector, sh.report.PerDetector)
		if sh.report.Sampling != nil {
			// Worker-index order — the same Welford merge order the campaign
			// aggregates use. Same strata by construction; Merge cannot fail.
			_ = merged.Sampling.Merge(sh.report.Sampling)
		}
		if cfg.KeepTrace && sel == nil {
			for k, out := range sh.report.Trace {
				merged.Trace[w+k*workers] = out
			}
		}
	}
	if barrier != nil {
		merged.Sampling.StopIndex = barrier.stopIndex()
	}
	if cfg.KeepTrace && sel != nil {
		// A sampled worker's trace holds only its executed indices, so the
		// dense stride interleave above does not apply: reassemble in
		// ascending global-index order with one cursor per worker — exactly
		// the order the serial sampled path records (entries can be missing
		// when the campaign stopped early or was interrupted).
		cursors := make([]int, workers)
		for i := 0; i < cfg.Injections; i++ {
			if !sel.executed(i) {
				continue
			}
			sh := shards[i%workers].report
			if c := cursors[i%workers]; c < len(sh.Trace) {
				merged.Trace = append(merged.Trace, sh.Trace[c])
				cursors[i%workers]++
			}
		}
	}
	ct.publishSampling(merged.Sampling)
	ct.publishCoverage(merged)
	if merged.Interrupted {
		return merged, ctx.Err()
	}
	return merged, nil
}
