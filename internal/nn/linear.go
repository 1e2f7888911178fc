package nn

import (
	"fmt"
	"math"

	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// Linear is a fully connected layer: y = x·W + b for x of shape (N, in).
// Inputs of higher rank are flattened to (N, in) on the fly, matching the
// usual classifier-head usage.
type Linear struct {
	name string
	w    *Param // (in, out)
	b    *Param // (out)

	lastInput *tensor.Tensor // (N, in), cached for Backward
}

var _ Module = (*Linear)(nil)

// NewLinear returns a linear layer with Kaiming-uniform initialized weights.
func NewLinear(name string, in, out int, r *rng.RNG) *Linear {
	bound := math.Sqrt(6.0 / float64(in))
	return &Linear{
		name: name,
		w:    NewParam(name+".weight", tensor.RandUniform(r, -bound, bound, in, out)),
		b:    NewParam(name+".bias", tensor.New(out)),
	}
}

// Name implements Module.
func (l *Linear) Name() string { return l.name }

// Kind implements Module.
func (l *Linear) Kind() Kind { return KindLinear }

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }

// Weight returns the (in, out) weight parameter.
func (l *Linear) Weight() *Param { return l.w }

// Bias returns the bias parameter.
func (l *Linear) Bias() *Param { return l.b }

// Forward implements Module. The matmul, bias add, and any staged
// epilogue (fused emulation of the output) run as one pass over the
// output tile — bit-identical to MatMul then Add then a whole-tensor
// post hook, but without re-streaming the output from memory.
func (l *Linear) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	in := l.w.Value.Dim(0)
	if x.Rank() != 2 {
		x = x.Reshape(-1, in)
	}
	if x.Dim(1) != in {
		panic(fmt.Sprintf("nn: %s expects input dim %d, got %v", l.name, in, x.Shape()))
	}
	l.lastInput = x
	ep, _ := ctx.TakeEpilogue()
	if spec, ok := ctx.TakeAccum(); ok {
		ep.Accum = linearAccumHook(spec, l.w.Value.Dim(1), ctx.rowsPerSample(x.Dim(0)))
	}
	return x.MatMulBias(l.w.Value, l.b.Value, ep)
}

// Backward implements Module.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastInput == nil {
		panic("nn: Linear.Backward before Forward")
	}
	if gradOut.Rank() != 2 {
		gradOut = gradOut.Reshape(-1, l.w.Value.Dim(1))
	}
	// dW = xᵀ·g, db = Σ rows g, dx = g·Wᵀ.
	l.w.Grad.AddInPlace(l.lastInput.TMatMul(gradOut))
	l.b.Grad.AddInPlace(gradOut.SumRows())
	return gradOut.MatMulT(l.w.Value)
}
