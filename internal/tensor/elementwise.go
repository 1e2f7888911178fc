package tensor

import (
	"fmt"
	"math"
)

// Add returns t + o element-wise. Shapes must match exactly, or o may be a
// rank-1 tensor whose length equals t's last dimension (row broadcast), which
// covers the bias-add pattern used throughout the NN substrate.
func (t *Tensor) Add(o *Tensor) *Tensor {
	return t.zipBroadcast(o, func(a, b float32) float32 { return a + b })
}

// Sub returns t - o element-wise, with the same broadcast rule as Add.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	return t.zipBroadcast(o, func(a, b float32) float32 { return a - b })
}

// Mul returns t * o element-wise, with the same broadcast rule as Add.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	return t.zipBroadcast(o, func(a, b float32) float32 { return a * b })
}

// AddInPlace accumulates o into t element-wise (no broadcasting).
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: AddInPlace size mismatch %v vs %v", t.shape, o.shape))
	}
	for i := range t.data {
		t.data[i] += o.data[i]
	}
}

// Scale returns t * s.
func (t *Tensor) Scale(s float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = v * s
	}
	return out
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AddScalar returns t + s.
func (t *Tensor) AddScalar(s float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = v + s
	}
	return out
}

// Apply returns a tensor with f applied to every element.
func (t *Tensor) Apply(f func(float32) float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// Clamp returns a tensor with every element limited to [lo, hi].
func (t *Tensor) Clamp(lo, hi float32) *Tensor {
	return t.Apply(func(v float32) float32 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	})
}

// AbsMax returns the largest absolute element value (0 for all-zero tensors).
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.data {
		a := math.Abs(float64(v))
		if a > m {
			m = a
		}
	}
	return m
}

// MinMax returns the smallest and largest element values.
func (t *Tensor) MinMax() (lo, hi float32) {
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range t.data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// zipBroadcast applies f pairwise. It supports exact shape match, and the
// common "o is a vector matching t's last dim" broadcast.
func (t *Tensor) zipBroadcast(o *Tensor, f func(a, b float32) float32) *Tensor {
	out := New(t.shape...)
	switch {
	case shapeEqual(t.shape, o.shape):
		for i := range t.data {
			out.data[i] = f(t.data[i], o.data[i])
		}
	case len(o.shape) == 1 && o.shape[0] == t.shape[len(t.shape)-1]:
		n := o.shape[0]
		for i := range t.data {
			out.data[i] = f(t.data[i], o.data[i%n])
		}
	default:
		panic(fmt.Sprintf("tensor: incompatible shapes %v and %v", t.shape, o.shape))
	}
	return out
}
