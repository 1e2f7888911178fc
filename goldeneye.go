// Package goldeneye is a functional simulator of numerical data formats
// with fault-injection capabilities for deep neural networks — a from-
// scratch Go reproduction of "GoldenEye: A Platform for Evaluating Emerging
// Numerical Data Formats in DNN Accelerators" (DSN 2022).
//
// The package is the public facade over the substrates in internal/:
//
//   - numfmt: the paper's five format families (FP, FxP, INT, BFP, AFP)
//     plus emerging extensions (posit, LNS, codebook LUT) behind a single
//     Format interface mirroring the paper's four-method API, with hardware
//     metadata (scaling factors, shared exponents, exponent biases) exposed
//     for hardware-aware fault injection.
//   - nn + tensor: the DNN execution substrate with layer-granularity hooks,
//     where emulation and injection interpose.
//   - inject + metrics: single-/multi-bit flips in values and metadata, the
//     mismatch and ΔLoss resiliency metrics, and the toggleable range
//     detector.
//   - dse: the recursive binary-tree design-space-exploration heuristic for
//     number-format selection.
//   - telemetry: counters/gauges/histograms with Prometheus and JSON
//     exposition; attach a Registry via CampaignConfig.Metrics and see
//     RegisterRuntimeCollectors for substrate-level counters.
//
// # Quick start
//
//	model, ds, _ := zoo.Pretrained("resnet_s")     // or bring your own nn.Module
//	sim := goldeneye.Wrap(model, ds.ValX)          // any batch; traced on a row-0 view
//	pool, _ := goldeneye.NewEvalPool(ds.ValX, ds.ValY, 32)
//	fp16 := numfmt.FP16(true)
//	acc := sim.EvaluatePool(pool, goldeneye.EmulationConfig{
//		Assignment: &goldeneye.FormatAssignment{
//			Params:  fp16, // every parameter, converted offline
//			Default: goldeneye.RoleFormats{Activations: fp16},
//		},
//	})
//
// Fault-injection campaigns take the same pool; BatchSize packs that many
// independent faults per forward pass (per-sample format metadata keeps the
// report bit-identical to the serial path):
//
//	bfp := numfmt.BFPe5m5()
//	rep, _ := sim.RunCampaign(ctx, goldeneye.CampaignConfig{
//		Format: bfp, Site: goldeneye.SiteValue,
//		Target: goldeneye.TargetNeuron, Layer: sim.InjectableLayers()[0],
//		Injections: 1000, Pool: pool, BatchSize: 32, UseRanger: true,
//		Assignment: &goldeneye.FormatAssignment{
//			Default: goldeneye.RoleFormats{Activations: bfp},
//		},
//	})
//
// See examples/ for runnable programs and EXPERIMENTS.md for the paper
// reproduction results.
package goldeneye

import (
	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/metrics"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/tensor"
	"goldeneye/internal/train"
)

// Re-exported core types, so downstream users interact with one import.
type (
	// Tensor is a dense float32 N-dimensional array.
	Tensor = tensor.Tensor
	// Module is a neural-network layer or model.
	Module = nn.Module
	// Format is a numerical data format (paper §III-B API).
	Format = numfmt.Format
	// Encoding is a tensor in format space: element codes plus metadata.
	Encoding = numfmt.Encoding
	// Fault is one fully specified bit flip.
	Fault = inject.Fault
	// CampaignResult aggregates an injection campaign's metrics.
	CampaignResult = metrics.CampaignResult
	// LayerInfo describes one hookable layer of a wrapped model.
	LayerInfo = nn.LayerInfo
	// RangeRow is one row of the paper's Table I.
	RangeRow = numfmt.RangeRow
	// HookSet holds layer hooks (format emulation, injection, clamping).
	HookSet = nn.HookSet
	// DetectorSpec declares one detector of a campaign's detection
	// pipeline (see internal/detect).
	DetectorSpec = detect.Spec
	// RecoveryPolicy selects what a campaign does with detector-flagged
	// inferences.
	RecoveryPolicy = detect.Policy
	// DetectorStats aggregates one detector's campaign-level coverage,
	// recovery, and false-positive counts.
	DetectorStats = metrics.DetectorStats
)

// Injection site and target re-exports.
const (
	SiteValue    = inject.SiteValue
	SiteMetadata = inject.SiteMetadata
	SiteAccum    = inject.SiteAccum
	TargetNeuron = inject.TargetNeuron
	TargetWeight = inject.TargetWeight
)

// Recovery policy re-exports.
const (
	RecoverNone      = detect.PolicyNone
	RecoverClamp     = detect.PolicyClamp
	RecoverZero      = detect.PolicyZero
	RecoverReexecute = detect.PolicyReexecute
	RecoverAbort     = detect.PolicyAbort
)

// ParseDetectors parses a comma-separated detector list (the CLIs'
// -detectors flag): any of ranger, sentinel, dmr, abft.
func ParseDetectors(list string) ([]DetectorSpec, error) { return detect.ParseSpecs(list) }

// ParseRecovery parses a recovery policy name (the CLIs' -recovery flag):
// none, clamp, zero, reexecute, or abort.
func ParseRecovery(s string) (RecoveryPolicy, error) { return detect.ParsePolicy(s) }

// Table1Rows recomputes the paper's Table I from the format
// implementations.
func Table1Rows() []RangeRow { return numfmt.Table1Rows() }

// Simulator wraps a model for number-format emulation, accuracy
// measurement, and fault-injection campaigns. Wrap traces the model once to
// enumerate its layers; a Simulator (like the underlying modules) is not
// safe for concurrent use.
type Simulator struct {
	model   nn.Module
	layers  []nn.LayerInfo
	sizes   map[int]int // layer index → output element count at batch 1
	widx    inject.ModuleIndex
	modules map[int]nn.Module // layer index → module, for structural detectors

	// The block table, where campaigns cut injected passes (see
	// campaign_prefix.go). root is the model when it is a Sequential (nil
	// otherwise); blockStart[i] is the visit index of top-level child i's
	// first layer and blockShape[i] its input shape at batch 1, and blockOf
	// maps each layer index to the top-level child that runs it.
	root       *nn.Sequential
	blockStart []int
	blockShape [][]int
	blockOf    map[int]int

	// fullPassOnly is a test seam: it turns clean-prefix reuse off, so
	// every injected pass starts at the network input.
	fullPassOnly bool
}

// Wrap prepares model for simulation. sample provides the model's input
// geometry: any batch size is accepted, and layer structure plus per-layer
// output sizes are traced on a row-0 view (so a full validation tensor can
// be passed directly). Wrap panics on an invalid sample; NewSimulator is
// the checked variant for untrusted inputs (e.g. network-submitted jobs).
func Wrap(model nn.Module, sample *tensor.Tensor) *Simulator {
	s, err := NewSimulator(model, sample)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSimulator is Wrap with the validation surfaced as a *ConfigError
// instead of a panic: the sample must be non-nil and carry at least one
// row.
func NewSimulator(model nn.Module, sample *tensor.Tensor) (*Simulator, error) {
	if model == nil {
		return nil, &ConfigError{Field: "Model", Reason: "simulator needs a model"}
	}
	if sample == nil {
		return nil, &ConfigError{Field: "Sample", Reason: "Wrap sample needs at least one row, got nil"}
	}
	if sample.Dim(0) < 1 {
		return nil, configErrf("Sample", "Wrap sample needs at least one row, got %v", sample.Shape())
	}
	if sample.Dim(0) > 1 {
		sample = sample.Slice(0, 1)
	}
	s := &Simulator{
		model:   model,
		sizes:   make(map[int]int),
		modules: make(map[int]nn.Module),
	}
	hooks := nn.NewHookSet()
	hooks.PostForward(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		s.layers = append(s.layers, info)
		s.sizes[info.Index] = t.Len()
		return t
	})
	ctx := nn.NewContext(hooks)
	block := 0
	ctx.SetVisitor(func(m nn.Module, info nn.LayerInfo) {
		s.modules[info.Index] = m
		if s.root != nil {
			s.blockOf[info.Index] = block
		}
	})
	if seq, ok := model.(*nn.Sequential); ok {
		// One child at a time, which numbers layers exactly as a full pass.
		s.root, s.blockOf = seq, make(map[int]int)
		x := sample
		for i := range seq.Children() {
			block = i
			s.blockStart = append(s.blockStart, ctx.Visits())
			s.blockShape = append(s.blockShape, x.Shape())
			x = nn.ForwardRange(ctx, seq, i, i+1, ctx.Visits(), x)
		}
	} else {
		nn.Forward(ctx, model, sample)
	}
	s.widx = inject.IndexModules(model, s.layers)
	return s, nil
}

// detectTarget is the model view handed to detector constructors.
func (s *Simulator) detectTarget() detect.Target {
	return detect.Target{Model: s.model, Layers: s.Layers(), Modules: s.modules}
}

// Model returns the wrapped module.
func (s *Simulator) Model() nn.Module { return s.model }

// Layers returns the traced layer list in visit order.
func (s *Simulator) Layers() []LayerInfo {
	return append([]nn.LayerInfo(nil), s.layers...)
}

// LayerOutputSize returns the element count of a layer's output at batch 1.
func (s *Simulator) LayerOutputSize(index int) int { return s.sizes[index] }

// layerInfo returns the traced LayerInfo at a visit index.
func (s *Simulator) layerInfo(index int) (nn.LayerInfo, bool) {
	for _, l := range s.layers {
		if l.Index == index {
			return l, true
		}
	}
	return nn.LayerInfo{}, false
}

// InjectableLayers returns the visit indices of CONV and LINEAR layers —
// the paper's default injection targets (§V-B).
func (s *Simulator) InjectableLayers() []int {
	var out []int
	for _, l := range s.layers {
		if l.Kind == nn.KindConv || l.Kind == nn.KindLinear {
			out = append(out, l.Index)
		}
	}
	return out
}

// WeightedLayers returns the visit indices of layers carrying a weight
// parameter (candidates for weight-targeted faults).
func (s *Simulator) WeightedLayers() []int { return s.widx.WeightedLayers() }

// DefaultInjectionLayer returns the conventional default layer for a
// campaign that did not pin one (CampaignConfig.Layer < 0): the middle
// injectable layer for neuron targets, the middle weighted layer for weight
// targets — the heuristic the CLI and the campaign service share. Returns
// -1 if the model exposes no candidate layer.
func (s *Simulator) DefaultInjectionLayer(target inject.Target) int {
	candidates := s.InjectableLayers()
	if target == inject.TargetWeight {
		candidates = s.WeightedLayers()
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[len(candidates)/2]
}

// EmulationConfig selects how number formats are applied to the model.
type EmulationConfig struct {
	// Assignment maps the network to per-role formats: Params for an
	// offline conversion of every parameter (§V-B), per-layer roles for
	// weights, activations and accumulators (mixed precision). Nil means
	// native FP32 execution (the baseline).
	Assignment *FormatAssignment
}

// inferenceHooks returns the emulation hooks of an inference pass under
// cfg: emulationHooks over one sample, or nil when cfg emulates nothing.
func inferenceHooks(cfg EmulationConfig) *nn.HookSet {
	asg := cfg.Assignment
	if !asg.hasActivations() && !asg.hasAccumulator() {
		return nil
	}
	return emulationHooks(asg, 1)
}

// applyEmulationWeights performs cfg's offline weight conversion and
// returns the restore function (nil when no conversion applies).
func (s *Simulator) applyEmulationWeights(cfg EmulationConfig) func() {
	if !cfg.Assignment.hasWeights() {
		return nil
	}
	backup := inject.BackupWeights(s.model)
	s.applyWeightAssignment(cfg.Assignment)
	return backup.Restore
}

// Evaluate returns the model's top-1 accuracy over (x, y) under the given
// emulation, restoring native weights afterwards.
func (s *Simulator) Evaluate(x *tensor.Tensor, y []int, batch int, cfg EmulationConfig) float64 {
	if restore := s.applyEmulationWeights(cfg); restore != nil {
		defer restore()
	}
	return train.Evaluate(s.model, x, y, batch, inferenceHooks(cfg))
}

// Logits runs a forward pass under the given emulation and returns the
// output logits. Weight conversion, when requested, is restored afterwards.
func (s *Simulator) Logits(x *tensor.Tensor, cfg EmulationConfig) *tensor.Tensor {
	if restore := s.applyEmulationWeights(cfg); restore != nil {
		defer restore()
	}
	return nn.Forward(nn.NewContext(inferenceHooks(cfg)), s.model, x)
}

// LogitsWithHooks runs a forward pass with a caller-assembled hook set, for
// custom emulation/injection pipelines beyond the built-in configurations.
func (s *Simulator) LogitsWithHooks(x *tensor.Tensor, hooks *HookSet) *tensor.Tensor {
	return nn.Forward(nn.NewContext(hooks), s.model, x)
}
