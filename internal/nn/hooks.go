package nn

import "goldeneye/internal/tensor"

// HookFunc observes or transforms a tensor flowing into (pre) or out of
// (post) a module. Returning the input unchanged is allowed; returning a new
// tensor replaces the activation, which is how format emulation and neuron
// fault injection are realized. A hook fires once per forward pass
// regardless of the batch size — a batched campaign pass hands the hook
// the whole activation of all its samples (see inject.NeuronHook), not one
// call per sample; a hook that scopes state per sample is built knowing
// the pass's sample count.
type HookFunc func(layer LayerInfo, t *tensor.Tensor) *tensor.Tensor

// Filter selects which layer visits a hook fires on. The zero value matches
// every layer; restrictions combine with AND.
type Filter struct {
	// Kinds restricts matching to the listed kinds (nil = all kinds).
	Kinds []Kind

	// Names restricts matching to the listed module names (nil = all).
	Names []string

	// HasIndex restricts matching to the single visit Index.
	HasIndex bool
	Index    int
}

// AllLayers matches everything.
func AllLayers() Filter { return Filter{} }

// DefaultLayers matches CONV and LINEAR layers, the paper's default hook
// targets (§V-B).
func DefaultLayers() Filter {
	return Filter{Kinds: []Kind{KindConv, KindLinear}}
}

// ByIndex matches a single layer visit.
func ByIndex(i int) Filter { return Filter{HasIndex: true, Index: i} }

// Matches reports whether the filter selects the given layer visit — the
// same predicate hook dispatch uses, exported so callers building per-layer
// configuration (format assignments) can resolve scope consistently.
func (f Filter) Matches(info LayerInfo) bool { return f.matches(info) }

func (f Filter) matches(info LayerInfo) bool {
	if f.HasIndex && f.Index != info.Index {
		return false
	}
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if k == info.Kind {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Names) > 0 {
		ok := false
		for _, n := range f.Names {
			if n == info.Name {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

type hookEntry struct {
	filter Filter
	fn     HookFunc

	// epFor, when non-nil, selects per layer visit an in-place equivalent
	// of fn that the producing layer may fuse into its output computation
	// (see PostForwardEpilogueBy). An empty result means "no fusion for
	// this visit" and fn runs as usual; fn also remains the fallback for
	// layers that do not consume epilogues.
	epFor func(LayerInfo) tensor.Epilogue
}

// HookSet holds the registered pre- and post-forward hooks of a simulation
// run. Hooks fire in registration order; post-forward hooks compose, so an
// injection hook registered after an emulation hook sees emulated values —
// the order the paper's injection pipeline implies (quantize, flip, write
// back).
type HookSet struct {
	pre   []hookEntry
	post  []hookEntry
	accum []accumEntry
}

// NewHookSet returns an empty hook set.
func NewHookSet() *HookSet { return &HookSet{} }

// Merge appends a copy of every hook entry of other (in order) to h.
// Pre-existing hooks of h keep firing first, and other is left unchanged,
// so one set can be merged into many.
func (h *HookSet) Merge(other *HookSet) {
	if other == nil {
		return
	}
	h.pre = append(h.pre, other.pre...)
	h.post = append(h.post, other.post...)
	h.accum = append(h.accum, other.accum...)
}

// PreForward registers fn to run on the input of every layer matching f.
func (h *HookSet) PreForward(f Filter, fn HookFunc) {
	h.pre = append(h.pre, hookEntry{filter: f, fn: fn})
}

// PostForward registers fn to run on the output of every layer matching f.
func (h *HookSet) PostForward(f Filter, fn HookFunc) {
	h.post = append(h.post, hookEntry{filter: f, fn: fn})
}

// PostForwardEpilogueBy registers fn like PostForward, additionally
// carrying a per-visit selector of an in-place epilogue form of the same
// transform; it may differ by layer, as in the mixed-precision assignment
// path, where each layer may run a different format's fused kernel. epFor
// is consulted at most once per matching visit. When the hook is the first
// post hook matching a layer and that layer's Forward fuses epilogues
// (Linear, Conv2D), the layer applies the selected epilogue to its output
// while it is cache-hot and fn is skipped for that visit; an empty result,
// or any other situation, runs fn exactly as a plain PostForward hook
// would. The selected epilogue and fn must compute the same values — the
// campaign engine selects the fused emulation kernel and registers
// EmulateBatched as fn, which are pinned bit-identical.
func (h *HookSet) PostForwardEpilogueBy(f Filter, fn HookFunc, epFor func(LayerInfo) tensor.Epilogue) {
	h.post = append(h.post, hookEntry{filter: f, fn: fn, epFor: epFor})
}

// AccumFault is one scheduled corruption of a layer's GEMM accumulator, in
// layer coordinates: Sample is the batch row of the forward pass, Elem the
// flat output element index the layer reports at batch 1, Step the
// multiply-accumulate step ([0, reduction depth), see GEMMDepth) after
// which Apply rewrites the partial sum. GEMM-backed layers translate these
// into tensor.AccumFault matrix coordinates.
type AccumFault struct {
	Sample int
	Elem   int
	Step   int
	Apply  func(float32) float32
}

// AccumSpec declares accumulator-interior behaviour for one layer visit:
// an optional reduced-precision accumulator rounding and scheduled
// mid-reduction faults. Quant rounds a slice of partial sums in place,
// element by element (numfmt.AccumRounding builds it); the layer's GEMM
// rounds each output row after every multiply-accumulate step and after
// the bias add (see tensor.AccumHook). Only GEMM-backed layers (Linear,
// Conv2D) consume accumulator specs; other layer kinds ignore them.
type AccumSpec struct {
	Quant  tensor.Rounding
	Faults []AccumFault
}

// Empty reports whether the spec changes nothing.
func (s AccumSpec) Empty() bool { return s.Quant == nil && len(s.Faults) == 0 }

type accumEntry struct {
	filter Filter
	fn     func(LayerInfo) AccumSpec
}

// Accum registers fn to provide the accumulator spec of every layer visit
// matching f. Specs from multiple matching entries merge: the first
// non-nil Quant wins (the emulation layer registers it before the
// injection layer adds faults) and fault lists concatenate in registration
// order.
func (h *HookSet) Accum(f Filter, fn func(LayerInfo) AccumSpec) {
	h.accum = append(h.accum, accumEntry{filter: f, fn: fn})
}

// hasAccum reports whether any accumulator entries are registered, so
// Apply can skip the staging machinery entirely on the legacy path.
func (h *HookSet) hasAccum() bool { return len(h.accum) > 0 }

// accumSpec merges the accumulator specs of every entry matching info.
func (h *HookSet) accumSpec(info LayerInfo) AccumSpec {
	var spec AccumSpec
	for _, e := range h.accum {
		if !e.filter.matches(info) {
			continue
		}
		s := e.fn(info)
		if spec.Quant == nil {
			spec.Quant = s.Quant
		}
		spec.Faults = append(spec.Faults, s.Faults...)
	}
	return spec
}

// fusibleEpilogue returns the epilogue a layer visit may fuse, with the
// index of the hook entry it replaces. Only the FIRST matching post hook
// is eligible: a fused epilogue runs inside the layer's Forward, i.e.
// before every other post hook, so fusing a later entry would reorder the
// composition (emulate→inject must stay emulate→inject).
func (h *HookSet) fusibleEpilogue(info LayerInfo) (tensor.Epilogue, int, bool) {
	for i, e := range h.post {
		if !e.filter.matches(info) {
			continue
		}
		if e.epFor == nil {
			return tensor.Epilogue{}, -1, false
		}
		if ep := e.epFor(info); !ep.Empty() {
			return ep, i, true
		}
		return tensor.Epilogue{}, -1, false
	}
	return tensor.Epilogue{}, -1, false
}

func (h *HookSet) runPre(info LayerInfo, t *tensor.Tensor) *tensor.Tensor {
	for _, e := range h.pre {
		if e.filter.matches(info) {
			t = e.fn(info, t)
		}
	}
	return t
}

func (h *HookSet) runPost(info LayerInfo, t *tensor.Tensor) *tensor.Tensor {
	return h.runPostSkip(info, t, -1)
}

// runPostSkip runs the post hooks in registration order, skipping the
// entry at index skip (the hook whose epilogue the layer already applied).
func (h *HookSet) runPostSkip(info LayerInfo, t *tensor.Tensor, skip int) *tensor.Tensor {
	for i, e := range h.post {
		if i == skip || !e.filter.matches(info) {
			continue
		}
		t = e.fn(info, t)
	}
	return t
}

// Trace runs a forward pass recording every layer visit, without hooks
// interfering. It is how campaigns enumerate injectable layers.
func Trace(m Module, x *tensor.Tensor) []LayerInfo {
	var visits []LayerInfo
	hooks := NewHookSet()
	hooks.PostForward(AllLayers(), func(info LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		visits = append(visits, info)
		return t
	})
	ctx := NewContext(hooks)
	Forward(ctx, m, x)
	return visits
}

// TraceModules runs a forward pass recording each visited module keyed by
// its visit index — the join between the layer indices hooks see and the
// modules (and parameters) behind them, which structural detectors such as
// ABFT weight checksums need.
func TraceModules(m Module, x *tensor.Tensor) map[int]Module {
	mods := make(map[int]Module)
	ctx := NewContext(nil)
	ctx.SetVisitor(func(mod Module, info LayerInfo) { mods[info.Index] = mod })
	Forward(ctx, m, x)
	return mods
}
