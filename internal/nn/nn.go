// Package nn is GoldenEye's DNN substrate: the role PyTorch plays for the
// original system. It provides layer modules with forward and backward
// passes, parameter management, and — centrally for this simulator — a
// layer-granularity hook mechanism equivalent to PyTorch's module hooks,
// which is where number-format emulation and fault injection interpose
// (paper §III-A: "GoldenEye leverages PyTorch's hook functionality to
// perform number format emulation at the layer granularity").
//
// Training support is deliberate: the paper lists number-format emulation
// during training/backpropagation as a feature (§V-B), and this repository
// trains its models in-process so accuracy measurements are meaningful.
package nn

import (
	"fmt"

	"goldeneye/internal/tensor"
)

// Kind classifies a module for hook filtering. The paper hooks CONV and
// LINEAR layers by default "due to their computational intensity" (§V-B);
// every kind is hookable.
type Kind int

// Module kinds.
const (
	KindConv Kind = iota + 1
	KindLinear
	KindBatchNorm
	KindLayerNorm
	KindActivation
	KindPool
	KindAttention
	KindEmbed
	KindContainer
	KindOther
)

// String returns the kind's short name.
func (k Kind) String() string {
	switch k {
	case KindConv:
		return "conv"
	case KindLinear:
		return "linear"
	case KindBatchNorm:
		return "batchnorm"
	case KindLayerNorm:
		return "layernorm"
	case KindActivation:
		return "activation"
	case KindPool:
		return "pool"
	case KindAttention:
		return "attention"
	case KindEmbed:
		return "embed"
	case KindContainer:
		return "container"
	default:
		return "other"
	}
}

// Param is a trainable tensor with its gradient accumulator. Frozen
// parameters (e.g. BatchNorm running statistics) are model state that is
// serialized with the model but skipped by optimizers.
type Param struct {
	Name   string
	Value  *tensor.Tensor
	Grad   *tensor.Tensor
	Frozen bool
}

// NewParam allocates a parameter and its zeroed gradient.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Shape()...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	data := p.Grad.Data()
	for i := range data {
		data[i] = 0
	}
}

// Module is a neural-network layer or container. Forward caches whatever
// Backward needs, so a module instance must not be shared across concurrent
// passes; clone models for parallel campaigns instead.
type Module interface {
	// Name returns the module's unique name within its model.
	Name() string

	// Kind classifies the module for hook filtering.
	Kind() Kind

	// Forward computes the module's output. Implementations of composite
	// modules must route children through ctx.Apply so hooks fire.
	Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor

	// Backward propagates gradOut (d-loss/d-output) to the input gradient,
	// accumulating parameter gradients along the way. It must be called
	// after Forward on the same instance.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor

	// Params returns the module's trainable parameters (nil if none).
	Params() []*Param
}

// LayerInfo describes a module visit during a forward pass, as seen by
// hooks and the layer tracer.
type LayerInfo struct {
	Name  string
	Kind  Kind
	Index int // visit order within the forward pass, 0-based
}

// String renders "index:name(kind)".
func (l LayerInfo) String() string {
	return fmt.Sprintf("%d:%s(%s)", l.Index, l.Name, l.Kind)
}

// Context threads hook state and mode flags through a forward pass. A nil
// Context is valid and means "plain inference, no hooks".
type Context struct {
	// Training selects training-mode behaviour (e.g. BatchNorm batch
	// statistics).
	Training bool

	hooks   *HookSet
	visit   int
	visitor func(Module, LayerInfo)

	// batch is the sample count of the pass's input (its leading dim), set
	// by Forward and ForwardRange. Modules that flatten the batch axis —
	// Linear over (N·T, D) token rows — divide by it to recover how many
	// GEMM rows each sample occupies.
	batch int

	// Epilogue hand-off between Apply and the current module's Forward:
	// Apply stages the fusible epilogue of the layer being visited;
	// epilogue-aware Forwards claim it through TakeEpilogue, which flips
	// epConsumed so Apply knows to skip the corresponding post hook.
	pendingEp      tensor.Epilogue
	pendingEpValid bool
	epConsumed     bool

	// Accumulator-spec hand-off, parallel to the epilogue staging: Apply
	// stages the merged AccumSpec of the layer being visited; GEMM-backed
	// Forwards claim it through TakeAccum. Unlike an epilogue, consuming a
	// spec skips no hook — the spec has no hook-function fallback, it only
	// exists inside the reduction.
	pendingAccum      AccumSpec
	pendingAccumValid bool
}

// NewContext returns a context carrying the given hooks (may be nil).
func NewContext(hooks *HookSet) *Context {
	return &Context{hooks: hooks}
}

// SetVisitor registers fn to observe every non-container module visit,
// alongside whatever hooks run. Structural indexers (detect's ABFT weight
// checksums, the module index) use it to join hook-visible layer indices
// with the modules behind them.
func (c *Context) SetVisitor(fn func(Module, LayerInfo)) { c.visitor = fn }

// Apply runs module m on x, firing pre- and post-forward hooks around it.
// All composite modules route children through this method; it is the
// single interposition point of the simulator. Pure containers (Sequential,
// Residual, blocks) are transparent: they get no hooks and no layer index,
// so "layer" always means a computational module.
func (c *Context) Apply(m Module, x *tensor.Tensor) *tensor.Tensor {
	if c == nil || (c.hooks == nil && c.visitor == nil) || m.Kind() == KindContainer {
		return m.Forward(c, x)
	}
	info := LayerInfo{Name: m.Name(), Kind: m.Kind(), Index: c.visit}
	c.visit++
	if c.visitor != nil {
		c.visitor(m, info)
	}
	if c.hooks == nil {
		return m.Forward(c, x)
	}
	x = c.hooks.runPre(info, x)
	// Stage this layer's fusible epilogue for the duration of its Forward.
	// The previous staging is saved and restored because composite modules
	// re-enter Apply for their children mid-Forward.
	savedEp, savedValid, savedConsumed := c.pendingEp, c.pendingEpValid, c.epConsumed
	savedAc, savedAcValid := c.pendingAccum, c.pendingAccumValid
	epIdx := -1
	c.pendingEp, c.pendingEpValid, c.epConsumed = tensor.Epilogue{}, false, false
	c.pendingAccum, c.pendingAccumValid = AccumSpec{}, false
	if ep, idx, ok := c.hooks.fusibleEpilogue(info); ok {
		c.pendingEp, epIdx = ep, idx
		c.pendingEpValid = true
	}
	if c.hooks.hasAccum() {
		if spec := c.hooks.accumSpec(info); !spec.Empty() {
			c.pendingAccum, c.pendingAccumValid = spec, true
		}
	}
	y := m.Forward(c, x)
	consumed := c.epConsumed
	c.pendingEp, c.pendingEpValid, c.epConsumed = savedEp, savedValid, savedConsumed
	c.pendingAccum, c.pendingAccumValid = savedAc, savedAcValid
	if consumed {
		return c.hooks.runPostSkip(info, y, epIdx)
	}
	return c.hooks.runPost(info, y)
}

// TakeEpilogue claims the epilogue staged for the module currently being
// forwarded, if any. A module that receives ok=true must apply the
// epilogue to its output exactly once — the hook it was fused from will
// not run for this visit. Safe on a nil context (no epilogue). Modules
// that never call TakeEpilogue are unaffected: their hooks run as always.
func (c *Context) TakeEpilogue() (tensor.Epilogue, bool) {
	if c == nil || !c.pendingEpValid || c.epConsumed {
		return tensor.Epilogue{}, false
	}
	c.epConsumed = true
	return c.pendingEp, true
}

// TakeAccum claims the accumulator spec staged for the module currently
// being forwarded, if any. GEMM-backed modules translate the spec into
// matrix coordinates and thread it into their reduction; modules without a
// GEMM never call this and the spec evaporates at the end of the visit.
// Safe on a nil context (no spec).
func (c *Context) TakeAccum() (AccumSpec, bool) {
	if c == nil || !c.pendingAccumValid {
		return AccumSpec{}, false
	}
	c.pendingAccumValid = false
	return c.pendingAccum, true
}

// Reset clears the per-pass visit counter; call between forward passes when
// reusing a context.
func (c *Context) Reset() {
	if c != nil {
		c.visit = 0
	}
}

// Visits returns the index the next layer visit of the current pass gets:
// after a full pass, the number of layers visited.
func (c *Context) Visits() int {
	if c == nil {
		return 0
	}
	return c.visit
}

// rowsPerSample returns how many leading rows each sample of the pass
// occupies in a module input with rows leading rows: 1 for per-sample
// inputs, T for the (N·T, D) token rows of a transformer's linears. Inputs
// the batch does not divide (or a context outside Forward) count as 1.
func (c *Context) rowsPerSample(rows int) int {
	if c == nil || c.batch <= 0 || rows%c.batch != 0 {
		return 1
	}
	return rows / c.batch
}

// Forward is a convenience that resets the context and applies the root
// module, so layer indices are stable across passes.
func Forward(ctx *Context, m Module, x *tensor.Tensor) *tensor.Tensor {
	ctx.Reset()
	if ctx == nil {
		return m.Forward(nil, x)
	}
	ctx.batch = x.Dim(0)
	return ctx.Apply(m, x)
}

// ForwardRange runs children [from, to) of the root Sequential s on x, the
// input child from receives in a full pass. Layer visits are numbered from
// first, which must be the visit index child from's first layer gets in a
// full pass: hook filters, ByIndex injection, range bounds and per-layer
// timing then see exactly the indices Forward would give them. Running
// [0, k) and then [k, len) with the second call's first = Visits() after
// the first is one full pass.
func ForwardRange(ctx *Context, s *Sequential, from, to, first int, x *tensor.Tensor) *tensor.Tensor {
	if ctx != nil {
		ctx.visit, ctx.batch = first, x.Dim(0)
	}
	for _, c := range s.children[from:to] {
		x = ctx.Apply(c, x)
	}
	return x
}

// ParamCount returns the total number of scalar parameters of a module.
func ParamCount(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Len()
	}
	return n
}

// ZeroGrads clears every parameter gradient of a module.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}
