package tensor

import (
	"fmt"
	"math"
)

// Sum returns the sum of all elements, accumulated in float64 for stability.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	return t.Sum() / float64(len(t.data))
}

// SumRows reduces a rank-2 (m, n) tensor over its rows, returning a rank-1
// tensor of length n. Used for bias gradients.
func (t *Tensor) SumRows() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SumRows requires a rank-2 tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// ArgMaxRows returns the index of the maximum element of each row of a
// rank-2 tensor. Ties resolve to the lowest index.
func (t *Tensor) ArgMaxRows() []int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRows requires a rank-2 tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := make([]int, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		best := 0
		for j := 1; j < n; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// SoftmaxRows returns the row-wise softmax of a rank-2 tensor, computed with
// the usual max-subtraction for numerical stability.
func (t *Tensor) SoftmaxRows() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SoftmaxRows requires a rank-2 tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		dst := out.data[i*n : (i+1)*n]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			dst[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dst {
			dst[j] *= inv
		}
	}
	return out
}

// LogSumExpRows returns the row-wise log-sum-exp of a rank-2 tensor.
func (t *Tensor) LogSumExpRows() []float64 {
	if len(t.shape) != 2 {
		panic("tensor: LogSumExpRows requires a rank-2 tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		maxV := float64(row[0])
		for _, v := range row[1:] {
			if float64(v) > maxV {
				maxV = float64(v)
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v) - maxV)
		}
		out[i] = maxV + math.Log(sum)
	}
	return out
}

// CountNonFinite returns the number of NaN or Inf elements; the range
// detector and tests use it to detect fault blow-ups.
func (t *Tensor) CountNonFinite() int {
	n := 0
	for _, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			n++
		}
	}
	return n
}

// NonFiniteRows returns the number of NaN or Inf elements in each row of a
// rank-2 tensor — the per-injection corruption signal of batched campaigns,
// where each batch row carries an independent fault.
func (t *Tensor) NonFiniteRows() []int {
	if len(t.shape) != 2 {
		panic("tensor: NonFiniteRows requires a rank-2 tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := make([]int, m)
	for i := 0; i < m; i++ {
		for _, v := range t.data[i*n : (i+1)*n] {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				out[i]++
			}
		}
	}
	return out
}

// Slice returns a copy of rows [lo, hi) along axis 0.
func (t *Tensor) Slice(lo, hi int) *Tensor {
	if lo < 0 || hi > t.shape[0] || lo >= hi {
		panic(fmt.Sprintf("tensor: Slice [%d, %d) out of range for axis 0 of %v", lo, hi, t.shape))
	}
	inner := len(t.data) / t.shape[0]
	shape := append([]int{hi - lo}, t.shape[1:]...)
	out := New(shape...)
	copy(out.data, t.data[lo*inner:hi*inner])
	return out
}

// Gather0 returns a new tensor whose rows are t's rows at idx, in order —
// the batch-packing primitive of the batched injection scheduler (one pool
// sample per in-flight fault, duplicates allowed).
func Gather0(t *Tensor, idx []int) *Tensor {
	if len(idx) == 0 {
		panic("tensor: Gather0 of nothing")
	}
	inner := len(t.data) / t.shape[0]
	shape := append([]int{len(idx)}, t.shape[1:]...)
	out := New(shape...)
	for k, i := range idx {
		if i < 0 || i >= t.shape[0] {
			panic(fmt.Sprintf("tensor: Gather0 index %d out of range for axis 0 of %v", i, t.shape))
		}
		copy(out.data[k*inner:(k+1)*inner], t.data[i*inner:(i+1)*inner])
	}
	return out
}

// GatherRowsInto is the allocation-free Gather0: it overwrites dst's rows
// with t's rows at idx, in order. dst must have exactly len(idx) rows with
// t's trailing dimensions — the batched campaign loop keeps one arena-
// backed dst per batch size and refills it every group instead of
// allocating a fresh batch tensor per injection round.
func GatherRowsInto(dst, t *Tensor, idx []int) {
	if len(idx) == 0 {
		panic("tensor: GatherRowsInto of nothing")
	}
	inner := len(t.data) / t.shape[0]
	if dst.shape[0] != len(idx) || len(dst.data) != len(idx)*inner {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst %v does not hold %d rows of %d elements", dst.shape, len(idx), inner))
	}
	for k, i := range idx {
		if i < 0 || i >= t.shape[0] {
			panic(fmt.Sprintf("tensor: GatherRowsInto index %d out of range for axis 0 of %v", i, t.shape))
		}
		copy(dst.data[k*inner:(k+1)*inner], t.data[i*inner:(i+1)*inner])
	}
}

// Concat0 concatenates tensors along axis 0. All trailing dimensions must
// match.
func Concat0(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat0 of nothing")
	}
	inner := len(ts[0].data) / ts[0].shape[0]
	rows := 0
	for _, t := range ts {
		if len(t.data)/t.shape[0] != inner {
			panic("tensor: Concat0 trailing dimension mismatch")
		}
		rows += t.shape[0]
	}
	shape := append([]int{rows}, ts[0].shape[1:]...)
	out := New(shape...)
	off := 0
	for _, t := range ts {
		copy(out.data[off:], t.data)
		off += len(t.data)
	}
	return out
}
