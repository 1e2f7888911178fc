// Package detect is GoldenEye's fault detection & recovery subsystem: a
// pluggable pipeline of activation guards that attach to nn forward hooks
// and the campaign engine. It promotes the detectors that were previously
// scattered through the codebase — DMR re-execution hardcoded in the
// campaign, the ranger as an inline config mutation, NaN/Inf checks on the
// output path — into calibrated, composable detectors paired with recovery
// policies, the "software-directed protection techniques" axis of the
// paper's §V-B.
//
// Detectors are declared with cheap Spec values (safe to copy around with a
// campaign config) and instantiated once per campaign with Build. A built
// Pipeline goes through three phases, after which every worker of the
// campaign shares it read-only:
//
//  1. Calibration: CalibrationHooks ride the campaign's fault-free
//     reference passes over the evaluation pool (ranger learns activation
//     bounds, ABFT seals weight checksums and residual tolerances). Each
//     pass keeps its own observations; the campaign folds the passes in
//     pool order and then seals the detectors with FinishCalibration, so
//     the calibration is the same however its passes were spread over the
//     campaign's workers.
//  2. False-positive sweep: the armed pipeline observes one more fault-free
//     pass over the pool; any flag it raises is a false positive, reported
//     per detector alongside coverage.
//  3. Campaign: Arm returns hooks for each monitored inference. Detections
//     land in a Recorder keyed by batch row, so batched campaign passes
//     stay bit-identical to serial ones (row-confined detection and
//     recovery, like row-confined injection).
package detect

import (
	"fmt"
	"strings"

	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// Policy selects what a campaign does with a flagged inference.
type Policy int

// Recovery policies, in escalating order of intervention.
const (
	// PolicyNone records detections without intervening.
	PolicyNone Policy = iota

	// PolicyClamp repairs flagged activations toward a safe value in
	// place (ranger clamps to calibrated bounds; the sentinel zeroes
	// non-finite values) and lets the inference continue.
	PolicyClamp

	// PolicyZero zeroes offending activation elements in place.
	PolicyZero

	// PolicyReexecute reruns a flagged inference without the transient
	// fault and delivers the rerun's output. Persistent corruption (weight
	// faults) survives re-execution, so it recovers transient faults only.
	PolicyReexecute

	// PolicyAbort discards a flagged inference: the outcome counts as
	// aborted instead of contributing mismatch/ΔLoss observations.
	PolicyAbort
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyClamp:
		return "clamp"
	case PolicyZero:
		return "zero"
	case PolicyReexecute:
		return "reexecute"
	case PolicyAbort:
		return "abort"
	default:
		return "none"
	}
}

// ParsePolicy parses a -recovery flag value. The empty string means
// PolicyNone.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return PolicyNone, nil
	case "clamp":
		return PolicyClamp, nil
	case "zero":
		return PolicyZero, nil
	case "reexecute", "reexec":
		return PolicyReexecute, nil
	case "abort":
		return PolicyAbort, nil
	default:
		return PolicyNone, fmt.Errorf("detect: unknown recovery policy %q (want none|clamp|zero|reexecute|abort)", s)
	}
}

// Target is the model view handed to detector constructors.
type Target struct {
	// Model is the simulated network.
	Model nn.Module

	// Layers lists the forward-pass layer visits, in hook order.
	Layers []nn.LayerInfo

	// Modules maps layer visit index → module (nn.TraceModules), the join
	// structural detectors use to reach a layer's parameters.
	Modules map[int]nn.Module
}

// Spec declares one detector of a campaign pipeline. Specs are declarative
// values — copying a CampaignConfig copies them safely; Build instantiates
// the detectors once per campaign, and after calibration the campaign's
// workers share those instances read-only (see Detector).
type Spec struct {
	// Kind names a built-in detector: "ranger", "sentinel", "dmr", "abft".
	Kind string

	// Margin widens ABFT's calibrated residual tolerance (multiplier over
	// the largest fault-free residual; 0 means the default).
	Margin float64

	// New, when non-nil, overrides Kind with a custom detector factory.
	// The detector must keep the Detector contract: it copies what it
	// needs from t and keeps no reference to t.Model or t.Modules for use
	// when armed.
	New func(t Target) (Detector, error)
}

// ParseSpecs parses a comma-separated -detectors flag value into specs.
// The empty string yields nil (no detectors).
func ParseSpecs(list string) ([]Spec, error) {
	var specs []Spec
	for _, part := range strings.Split(list, ",") {
		kind := strings.ToLower(strings.TrimSpace(part))
		if kind == "" {
			continue
		}
		switch kind {
		case "ranger", "sentinel", "dmr", "abft":
			specs = append(specs, Spec{Kind: kind})
		default:
			return nil, fmt.Errorf("detect: unknown detector %q (want ranger|sentinel|dmr|abft)", kind)
		}
	}
	return specs, nil
}

// Names returns the detector names a spec list will build, in order.
func Names(specs []Spec) []string {
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		if s.New != nil && s.Kind == "" {
			names = append(names, "custom")
			continue
		}
		names = append(names, s.Kind)
	}
	return names
}

// Detector is one guard of the pipeline. Implementations must confine both
// detection and recovery to individual batch rows: a batched campaign pass
// carries an independent fault per row, and reports are required to be
// bit-identical to running those rows serially.
//
// A campaign builds each detector once and its parallel workers share it,
// each on its own model copy. Calibration is per pass, like Arm: the
// workers run the calibration passes over disjoint slices of the pool at
// once, each pass on the hooks of its own CalibrationHooks call, and the
// campaign then calls the passes' folds one at a time, in pool order,
// followed by FinishCalibration. Once FinishCalibration has run, a
// detector is read-only, and Arm may be called from several goroutines at
// once. A constructor copies what it needs from its Target (as ABFT seals
// its weight checksums) and keeps no reference to Target.Model or
// Target.Modules for use when armed or calibrating, since those are one
// worker's model.
type Detector interface {
	// Name identifies the detector in reports and metrics.
	Name() string

	// CalibrationHooks returns the pure-observation hooks of one
	// calibration pass and the fold that merges the pass's observations
	// into the detector. Every call returns fresh hooks that keep their
	// observations in the closure, so passes may run concurrently; the
	// hooks may serve several forward passes in a row. Folding passes in
	// pool order must give the calibration one pass over the whole pool
	// would. Both are nil when the detector needs no calibration.
	CalibrationHooks() (hooks *nn.HookSet, fold func())

	// FinishCalibration seals the folded state before arming.
	FinishCalibration() error

	// Arm returns the hooks monitoring one inference, reporting flags to
	// rec by batch row. Under PolicyClamp/PolicyZero the hooks also repair
	// the offending activations, row-confined. Every call returns fresh
	// hook closures; per-pass scratch state must live in the closure, not
	// on the detector, so re-execution passes and concurrent workers can
	// overlap arming. A nil return means the detector needs no hooks (e.g.
	// DMR, which only compares outputs).
	Arm(rec *Recorder, policy Policy) *nn.HookSet
}

// Comparator is implemented by redundancy detectors (DMR) that compare the
// monitored inference's output against a duplicate fault-free execution.
type Comparator interface {
	// Compare flags rows whose faulty output differs from the rerun.
	Compare(rec *Recorder, faulty, rerun *tensor.Tensor)
}

// Event is one detection: detector d flagged batch row Row at layer Layer
// (-1 for output-level detectors such as DMR).
type Event struct {
	Detector string
	Layer    int
	Row      int
}

// Recorder collects one monitored inference's detection events. A fresh
// Recorder is created per forward pass; like the hook sets it feeds, it is
// not safe for concurrent use. Repeat flags for the same (detector, row)
// pair are deduplicated, keeping the first — and therefore earliest-layer —
// event, so DetectedBy order is the order detectors fired, which is
// identical between serial and batched passes.
type Recorder struct {
	rows           int
	events         []Event
	seen           map[string][]bool
	firstNonFinite []int
}

// NewRecorder returns a recorder for a pass with the given number of batch
// rows (1 for serial campaigns).
func NewRecorder(rows int) *Recorder {
	nf := make([]int, rows)
	for i := range nf {
		nf[i] = -1
	}
	return &Recorder{rows: rows, seen: make(map[string][]bool), firstNonFinite: nf}
}

// Rows returns the number of batch rows the recorder covers.
func (r *Recorder) Rows() int { return r.rows }

// Flag records that detector det flagged row at layer. Out-of-range rows
// and repeat flags are ignored.
func (r *Recorder) Flag(det string, layer, row int) {
	if row < 0 || row >= r.rows {
		return
	}
	s := r.seen[det]
	if s == nil {
		s = make([]bool, r.rows)
		r.seen[det] = s
	}
	if s[row] {
		return
	}
	s[row] = true
	r.events = append(r.events, Event{Detector: det, Layer: layer, Row: row})
}

// MarkNonFinite records that row's activation went non-finite at layer,
// keeping the first such layer. The sentinel detector feeds this; the
// campaign trace exposes it as FirstNonFiniteLayer.
func (r *Recorder) MarkNonFinite(layer, row int) {
	if row >= 0 && row < r.rows && r.firstNonFinite[row] < 0 {
		r.firstNonFinite[row] = layer
	}
}

// FirstNonFiniteLayer returns the first layer whose output went non-finite
// in the given row, or -1 if none was observed (observation requires an
// armed sentinel).
func (r *Recorder) FirstNonFiniteLayer(row int) int {
	if row < 0 || row >= r.rows {
		return -1
	}
	return r.firstNonFinite[row]
}

// RowFlagged reports whether any detector flagged the row.
func (r *Recorder) RowFlagged(row int) bool {
	for _, s := range r.seen {
		if row >= 0 && row < len(s) && s[row] {
			return true
		}
	}
	return false
}

// AnyFlagged reports whether any detector flagged any row.
func (r *Recorder) AnyFlagged() bool { return len(r.events) > 0 }

// DetectedBy returns the names of the detectors that flagged row, in
// firing order.
func (r *Recorder) DetectedBy(row int) []string {
	var out []string
	for _, e := range r.events {
		if e.Row == row {
			out = append(out, e.Detector)
		}
	}
	return out
}

// Events returns every detection event in firing order.
func (r *Recorder) Events() []Event { return r.events }

// Pipeline bundles a campaign's built detectors with its recovery policy.
type Pipeline struct {
	policy    Policy
	detectors []Detector
}

// Build instantiates the declared detectors against a target model. It
// returns nil (no pipeline) for an empty spec list. Detector names must be
// unique within a pipeline.
func Build(specs []Spec, policy Policy, t Target) (*Pipeline, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	p := &Pipeline{policy: policy}
	seen := make(map[string]bool)
	for _, s := range specs {
		var (
			d   Detector
			err error
		)
		switch {
		case s.New != nil:
			d, err = s.New(t)
		case s.Kind == "ranger":
			d = NewRanger()
		case s.Kind == "sentinel":
			d = Sentinel{}
		case s.Kind == "dmr":
			d = DMR{}
		case s.Kind == "abft":
			d, err = NewABFT(t, s.Margin)
		default:
			err = fmt.Errorf("detect: unknown detector %q", s.Kind)
		}
		if err != nil {
			return nil, err
		}
		if seen[d.Name()] {
			return nil, fmt.Errorf("detect: duplicate detector %q", d.Name())
		}
		seen[d.Name()] = true
		p.detectors = append(p.detectors, d)
	}
	return p, nil
}

// Policy returns the pipeline's recovery policy.
func (p *Pipeline) Policy() Policy { return p.policy }

// Names returns the armed detector names, in pipeline order.
func (p *Pipeline) Names() []string {
	names := make([]string, len(p.detectors))
	for i, d := range p.detectors {
		names[i] = d.Name()
	}
	return names
}

// CalibrationHooks returns one calibration pass of every detector: their
// merged hooks (possibly an empty set) and a fold that folds each
// detector's pass, in pipeline order.
func (p *Pipeline) CalibrationHooks() (*nn.HookSet, func()) {
	hooks := nn.NewHookSet()
	var folds []func()
	for _, d := range p.detectors {
		h, fold := d.CalibrationHooks()
		hooks.Merge(h)
		if fold != nil {
			folds = append(folds, fold)
		}
	}
	return hooks, func() {
		for _, fold := range folds {
			fold()
		}
	}
}

// FinishCalibration seals every detector's calibration state.
func (p *Pipeline) FinishCalibration() error {
	for _, d := range p.detectors {
		if err := d.FinishCalibration(); err != nil {
			return fmt.Errorf("detect: %s calibration: %w", d.Name(), err)
		}
	}
	return nil
}

// Arm returns the merged monitoring hooks for one inference. Register the
// result AFTER injection hooks, so faults are detected rather than
// prevented (same rule as the legacy ranger clamp).
func (p *Pipeline) Arm(rec *Recorder) *nn.HookSet {
	hooks := nn.NewHookSet()
	for _, d := range p.detectors {
		hooks.Merge(d.Arm(rec, p.policy))
	}
	return hooks
}

// NeedsRerun reports whether any armed detector is a Comparator and thus
// requires a duplicate fault-free execution of each monitored inference.
func (p *Pipeline) NeedsRerun() bool {
	for _, d := range p.detectors {
		if _, ok := d.(Comparator); ok {
			return true
		}
	}
	return false
}

// CompareOutputs hands the faulty and duplicate outputs to every
// Comparator detector.
func (p *Pipeline) CompareOutputs(rec *Recorder, faulty, rerun *tensor.Tensor) {
	for _, d := range p.detectors {
		if c, ok := d.(Comparator); ok {
			c.Compare(rec, faulty, rerun)
		}
	}
}

// rowSpan returns the flat-data extent of batch row r when the recorder
// tracks rows rows over a tensor of n elements. Layer activations are
// row-major with the batch outermost, and modules may flatten the batch
// axis (Linear reshapes (N, T, D) to (N*T, D)), so slicing flat data by the
// recorder's row count — not the tensor's own leading dim — is what keeps
// detection row-confined. When n is not divisible by rows the whole tensor
// is attributed to row 0 (single-sample semantics).
func rowSpan(n, rows, r int) (lo, hi int, ok bool) {
	if rows <= 0 || n%rows != 0 {
		if r == 0 {
			return 0, n, true
		}
		return 0, 0, false
	}
	span := n / rows
	return r * span, (r + 1) * span, true
}
