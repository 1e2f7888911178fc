// Package tensor implements the dense N-dimensional array substrate that the
// rest of GoldenEye is built on. It plays the role PyTorch's ATen plays for
// the original system: float32 storage, row-major contiguous layout, blocked
// and goroutine-parallel matrix multiply, im2col convolution, reductions,
// and deterministic random initialization.
//
// Tensors are contiguous and row-major. Shapes are immutable after
// construction except through Reshape, which requires an identical element
// count. All operations allocate their result unless the name ends in
// "InPlace".
package tensor

import (
	"fmt"
	"math"
	"strings"

	"goldeneye/internal/rng"
)

// Tensor is a dense, row-major, float32 N-dimensional array.
type Tensor struct {
	data  []float32
	shape []int
}

// New returns a zero-filled tensor with the given shape.
// It panics on a non-positive dimension, since a malformed shape is always a
// programming error in this codebase (shapes never come from external input).
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		data:  make([]float32, n),
		shape: append([]int(nil), shape...),
	}
}

// FromSlice wraps data into a tensor of the given shape, copying the slice.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	t := New(shape...)
	copy(t.data, data)
	return t
}

// Wrap returns a tensor that aliases data as its storage — no copy. The
// caller keeps ownership of the slice: mutations flow both ways, and the
// data must outlive the tensor. This is the arena path: campaign scratch
// buffers become tensors without a per-use allocation. Use FromSlice when
// an independent copy is wanted.
func Wrap(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: Wrap data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{data: data, shape: append([]int(nil), shape...)}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn returns a tensor with elements drawn from N(0, std²), or all zero
// for a nil r.
func Randn(r *rng.RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	if r == nil {
		return t
	}
	for i := range t.data {
		t.data[i] = float32(r.NormFloat64() * std)
	}
	return t
}

// RandUniform returns a tensor with elements drawn uniformly from [lo, hi),
// or all zero for a nil r.
func RandUniform(r *rng.RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	if r == nil {
		return t
	}
	span := hi - lo
	for i := range t.data {
		t.data[i] = float32(lo + float64(r.Float64()*span))
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	return append([]int(nil), t.shape...)
}

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. The slice aliases the tensor; callers
// that mutate it mutate the tensor. This is deliberate: the format-emulation
// and fault-injection hot paths quantize tensors in place.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view-copy of t with a new shape of equal element count.
// One dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
			continue
		}
		known *= d
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer Reshape %v from %d elements", shape, len(t.data)))
		}
		shape[infer] = len(t.data) / known
	}
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v (%d) does not match %d elements", shape, n, len(t.data)))
	}
	return &Tensor{data: t.data, shape: shape}
}

// Row returns a copy of row i of a rank-2 tensor as a rank-1 tensor.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	cols := t.shape[1]
	out := New(cols)
	copy(out.data, t.data[i*cols:(i+1)*cols])
	return out
}

// String renders a compact, human-readable summary (shape plus leading
// elements); used in error messages and debugging, not serialization.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if show < n {
		fmt.Fprintf(&b, " …+%d", n-show)
	}
	b.WriteString("]")
	return b.String()
}

// AllClose reports whether t and o have identical shapes and element-wise
// absolute differences no greater than tol.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !shapeEqual(t.shape, o.shape) {
		return false
	}
	for i := range t.data {
		d := float64(t.data[i]) - float64(o.data[i])
		if math.Abs(d) > tol {
			return false
		}
	}
	return true
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
