package tensor

import (
	"math"
	"testing"

	"goldeneye/internal/rng"
)

// accumMatMul is the accumulator GEMM: MatMulBias without a bias, with h
// as its epilogue's Accum.
func accumMatMul(a, b *Tensor, h *AccumHook) *Tensor {
	return a.MatMulBias(b, nil, Epilogue{Accum: h})
}

// plainKernel is a @ b through the plain row kernel on one goroutine.
func plainKernel(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	matmulRows(out.data, a.data, b.data, 0, m, k, n)
	return out
}

// An inactive accumulator hook — none, or one with neither field set —
// must select the plain kernel: MatMulBias is bit-identical to it on both
// the serial and the parallel-rows path.
func TestMatMulAccumInactiveIsPlainKernel(t *testing.T) {
	for _, dims := range [][3]int{{3, 5, 7}, {64, 96, 300}} {
		m, k, n := dims[0], dims[1], dims[2]
		r := rng.New(21)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		want := plainKernel(a, b)
		bitsEqual(t, accumMatMul(a, b, nil), want)
		bitsEqual(t, accumMatMul(a, b, &AccumHook{}), want)
		bitsEqual(t, a.MatMul(b), want)
	}
}

// rowQuant adapts a scalar rounding to the row-typed AccumHook.Quant.
func rowQuant(q func(float32) float32) RoundFunc {
	return func(row []float32) {
		for i, v := range row {
			row[i] = q(v)
		}
	}
}

// scalarAccumRef is the straight-line reference the kernel is pinned to:
// per output element, accumulate k steps in order, rounding through quant
// (when non-nil) after each step and applying scheduled faults after their
// step, in slice order.
func scalarAccumRef(a, b *Tensor, m, k, n int, quant func(float32) float32, faults []AccumFault) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				if av := a.data[i*k+p]; av != 0 {
					acc = acc + av*b.data[p*n+j]
					if quant != nil {
						acc = quant(acc)
					}
				}
				for _, f := range faults {
					if f.Step == p && f.Row == i && f.Col == j {
						acc = f.Apply(acc)
					}
				}
			}
			out[i*n+j] = acc
		}
	}
	return out
}

// A quantizing accumulator rounds every partial sum; the kernel must match
// the scalar per-element reference bit for bit on both sharding paths.
func TestMatMulAccumQuantMatchesScalarReference(t *testing.T) {
	quant := func(v float32) float32 { // crude fp32->bf16 truncation
		return math.Float32frombits(math.Float32bits(v) &^ 0xFFFF)
	}
	for _, dims := range [][3]int{{4, 9, 6}, {64, 32, 300}} {
		m, k, n := dims[0], dims[1], dims[2]
		r := rng.New(33)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		got := accumMatMul(a, b, &AccumHook{Quant: rowQuant(quant)})
		want := scalarAccumRef(a, b, m, k, n, quant, nil)
		for i := range want {
			if math.Float32bits(got.data[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%dx%dx%d: element %d: %v vs scalar %v", m, k, n, i, got.data[i], want[i])
			}
		}
	}
}

// A fault scheduled at step s corrupts the partial sum after exactly s+1
// accumulations, and the corrupted value flows through the remaining
// reduction — the interior behaviour output-boundary injection can't
// express.
func TestMatMulAccumFaultTiming(t *testing.T) {
	m, k, n := 2, 4, 3
	a := New(m, k)
	b := New(k, n)
	for i := range a.data {
		a.data[i] = float32(i + 1)
	}
	for i := range b.data {
		b.data[i] = float32(i%5) - 2
	}
	stuck := func(float32) float32 { return 100 }
	for step := 0; step < k; step++ {
		h := &AccumHook{Faults: []AccumFault{{Row: 1, Col: 2, Step: step, Apply: stuck}}}
		got := accumMatMul(a, b, h)
		// Reference: resume the reduction from 100 over the remaining steps.
		var want float32 = 100
		for p := step + 1; p < k; p++ {
			want += a.data[1*k+p] * b.data[p*n+2]
		}
		if got.data[1*n+2] != want {
			t.Fatalf("step %d: faulted element %v, want %v", step, got.data[1*n+2], want)
		}
		// Every other element is untouched.
		clean := a.MatMul(b)
		for i := range got.data {
			if i == 1*n+2 {
				continue
			}
			if math.Float32bits(got.data[i]) != math.Float32bits(clean.data[i]) {
				t.Fatalf("step %d: sibling element %d corrupted", step, i)
			}
		}
	}
}

// With a quantizing accumulator the bias add is one more accumulation
// step: MatMulBias must round the register after it.
func TestMatMulBiasQuantizedBiasAdd(t *testing.T) {
	quant := func(v float32) float32 {
		return math.Float32frombits(math.Float32bits(v) &^ 0x3FFF)
	}
	r := rng.New(5)
	m, k, n := 3, 6, 4
	a := Randn(r, 1, m, k)
	b := Randn(r, 1, k, n)
	bias := Randn(r, 1, n)
	h := &AccumHook{Quant: rowQuant(quant)}
	got := a.MatMulBias(b, bias, Epilogue{Accum: h})
	pre := accumMatMul(a, b, h)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := quant(pre.data[i*n+j] + bias.data[j])
			if math.Float32bits(got.data[i*n+j]) != math.Float32bits(want) {
				t.Fatalf("(%d,%d): %v, want quantized bias add %v", i, j, got.data[i*n+j], want)
			}
		}
	}
}

// Under a faults-only hook the GEMM indexes its faults by row: rows without
// a fault stay bit-identical to MatMul, faulted
// rows match the scalar reference, and two faults at one (row, step) apply
// in registration order — on both sharding paths.
func TestMatMulAccumFaultsOnlyPlainRows(t *testing.T) {
	double := func(v float32) float32 { return 2 * v }
	plusOne := func(v float32) float32 { return v + 1 }
	for _, dims := range [][3]int{{5, 7, 6}, {64, 48, 300}} {
		m, k, n := dims[0], dims[1], dims[2]
		if parallel := m*n >= ParallelMinElems; parallel != (m == 64) {
			t.Fatalf("%dx%d: parallel path %v, want it only for the large shape", m, n, parallel)
		}
		r := rng.New(41)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		// Registered out of (row, step) order, with the last row first, so
		// the per-call index must sort them; the two faults at (m-1, 3)
		// must still apply double-then-plusOne.
		faults := []AccumFault{
			{Row: m - 1, Col: n - 1, Step: 3, Apply: double},
			{Row: 0, Col: 1, Step: k - 1, Apply: plusOne},
			{Row: m - 1, Col: n - 1, Step: 3, Apply: plusOne},
			{Row: 0, Col: 2, Step: 0, Apply: double},
		}
		// Enough faults at one more (row, step) that an unstable sort
		// would reorder them; each step of the chain is order-sensitive.
		for i := 0; i < 40; i++ {
			c := float32(i)
			faults = append(faults, AccumFault{Row: m - 1, Col: 0, Step: 5, Apply: func(v float32) float32 { return v/2 + c }})
		}
		got := accumMatMul(a, b, &AccumHook{Faults: faults})
		want := scalarAccumRef(a, b, m, k, n, nil, faults)
		for i := range want {
			if math.Float32bits(got.data[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%dx%dx%d: element %d: %v vs scalar %v", m, k, n, i, got.data[i], want[i])
			}
		}
		swapped := append([]AccumFault(nil), faults...)
		swapped[0], swapped[2] = swapped[2], swapped[0]
		if other := accumMatMul(a, b, &AccumHook{Faults: swapped}); other.data[m*n-1] == got.data[m*n-1] {
			t.Fatalf("%dx%dx%d: faults sharing a (row, step) did not apply in registration order", m, k, n)
		}
		bitsEqual(t, got.Slice(1, m-1), a.MatMul(b).Slice(1, m-1))
	}
}
