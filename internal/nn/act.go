package nn

import (
	"math"

	"goldeneye/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	name string

	lastInput *tensor.Tensor
}

var _ Module = (*ReLU)(nil)

// NewReLU returns a ReLU activation module.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Module.
func (a *ReLU) Name() string { return a.name }

// Kind implements Module.
func (a *ReLU) Kind() Kind { return KindActivation }

// Params implements Module.
func (a *ReLU) Params() []*Param { return nil }

// Forward implements Module.
func (a *ReLU) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	a.lastInput = x
	return x.Apply(func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
}

// Backward implements Module.
func (a *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if a.lastInput == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	dx := gradOut.Clone()
	in := a.lastInput.Data()
	dd := dx.Data()
	for i := range dd {
		if in[i] < 0 {
			dd[i] = 0
		}
	}
	return dx
}

// GELU is the Gaussian-error linear unit with the tanh approximation used
// by transformer MLP blocks.
type GELU struct {
	name string

	lastInput *tensor.Tensor
}

var _ Module = (*GELU)(nil)

// NewGELU returns a GELU activation module.
func NewGELU(name string) *GELU { return &GELU{name: name} }

// Name implements Module.
func (a *GELU) Name() string { return a.name }

// Kind implements Module.
func (a *GELU) Kind() Kind { return KindActivation }

// Params implements Module.
func (a *GELU) Params() []*Param { return nil }

const (
	geluC0 = 0.7978845608028654 // √(2/π)
	geluC1 = 0.044715
)

func geluValue(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(geluC0*(x+float64(geluC1*x*x*x))))
}

func geluGrad(x float64) float64 {
	inner := geluC0 * (x + float64(geluC1*x*x*x))
	t := math.Tanh(inner)
	sech2 := 1 - float64(t*t)
	return float64(0.5*(1+t)) + float64(0.5*x*sech2*geluC0*(1+float64(3*geluC1*x*x)))
}

// Forward implements Module.
func (a *GELU) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	a.lastInput = x
	return x.Apply(func(v float32) float32 {
		return float32(geluValue(float64(v)))
	})
}

// Backward implements Module.
func (a *GELU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if a.lastInput == nil {
		panic("nn: GELU.Backward before Forward")
	}
	dx := gradOut.Clone()
	in := a.lastInput.Data()
	dd := dx.Data()
	for i := range dd {
		dd[i] *= float32(geluGrad(float64(in[i])))
	}
	return dx
}
