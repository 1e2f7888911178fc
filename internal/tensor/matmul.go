package tensor

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// matmulRowsGo computes rows [lo, hi) of C += A @ B using an ikj loop order
// so the inner loop streams both B and C rows sequentially. It is the
// portable kernel and the reference the assembly kernel must match bit for
// bit: each element starts from its value in C and adds av*bp[j] for every
// p in ascending order, skipping the steps whose av is ±0 (so 0·Inf never
// makes a NaN and −0 + +0 never makes +0). The float32 conversion rounds
// the product on its own, which forbids fusing it with the add into one
// FMA on the architectures that have one.
func matmulRowsGo(c, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*n : (p+1)*n]
			for j := range ci {
				ci[j] += float32(av * bp[j])
			}
		}
	}
}

// addScaledRow is the plain kernel's inner sweep, ci[j] += av*bp[j], for
// matmulRowsAccumGo, which runs every accumulator hook off AVX2 hosts and
// every hook but an FPRound on them. It stays out of line on purpose:
// inlined into matmulRowsAccumGo, whose step loop also calls the rounding
// and fault functions, the compiler keeps the sweep's loop counter on the
// stack, and a GEMM whose rows are mostly unfaulted runs about 1.5× slower
// than the plain kernel (BenchmarkMatMulAccum/faults_only). It is defined
// ahead of matmulRowsAccumGo, which starts it at 0 mod 64 in go1.24 builds;
// see Epilogue.Apply for why its address matters.
//
//go:noinline
func addScaledRow(ci, bp []float32, av float32) {
	for j := range ci {
		ci[j] += float32(av * bp[j])
	}
}

// matmulRowsAccumGo is the accumulator GEMM's portable sweep and the
// reference its AVX2 tile matches bit for bit: after each
// multiply-accumulate step the output row is rounded through quant (when
// set), and scheduled faults rewrite their register after their step.
// faults must be ordered by faultsByRowStep. The step's float32 update is
// the plain kernel's, so rounding the row afterwards gives the register the
// same value as rounding each element's update on its own. Steps whose A
// value is zero skip the update, like the plain kernel, and skip the
// rounding too: after a fault the register may hold a value quant would
// change, and only a step that updates it rounds it again. Without quant,
// a row with no faults does exactly the plain kernel's work. Sharding
// stays per output row, so every element's reduction runs sequentially
// inside one goroutine and the result is independent of the worker count.
func matmulRowsAccumGo(c, a, b []float32, lo, hi, k, n int, quant Rounding, faults []AccumFault) {
	next, _ := slices.BinarySearchFunc(faults, lo, func(f AccumFault, row int) int { return cmp.Compare(f.Row, row) })
	for i := lo; i < hi; i++ {
		end := next
		for end < len(faults) && faults[end].Row == i {
			end++
		}
		rf := faults[next:end]
		next = end
		ci := c[i*n : (i+1)*n]
		ai := a[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			if av := ai[p]; av != 0 {
				addScaledRow(ci, b[p*n:(p+1)*n], av)
				if quant != nil {
					quant.Round(ci)
				}
			}
			for ; len(rf) > 0 && rf[0].Step <= p; rf = rf[1:] {
				if f := rf[0]; f.Step == p {
					ci[f.Col] = f.Apply(ci[f.Col])
				}
			}
		}
	}
}

// faultsByRowStep returns a copy of faults ordered by (Row, Step), keeping
// slice order among faults that share both — the order they apply in. The
// GEMM indexes its faults this way once per call, so each output row finds
// its own faults without scanning the others.
func faultsByRowStep(faults []AccumFault) []AccumFault {
	if len(faults) == 0 {
		return nil
	}
	s := slices.Clone(faults)
	slices.SortStableFunc(s, func(x, y AccumFault) int {
		if c := cmp.Compare(x.Row, y.Row); c != 0 {
			return c
		}
		return cmp.Compare(x.Step, y.Step)
	})
	return s
}

// MatMul returns t @ o for rank-2 tensors of shapes (m, k) and (k, n):
// MatMulBias without a bias or an epilogue.
func (t *Tensor) MatMul(o *Tensor) *Tensor {
	return t.MatMulBias(o, nil, Epilogue{})
}

// MatMulBias returns t @ o + bias with an optional epilogue applied to the
// output while it is cache-hot. bias may be nil (no bias) or a rank-1
// tensor of length n added to every output row — bit-identical to
// MatMul(o).Add(bias), which performs the same additions in the same
// order, but without materializing the intermediate product. The epilogue
// runs per output chunk inside the worker goroutines (Tile) or once after
// the parallel barrier (Whole); an active ep.Accum swaps the plain kernel
// for the accumulator one (see AccumHook). It is the one GEMM driver:
// MatMul, Linear and the conv forward all run through it.
//
// This is the layer-forward fast path: emulation (or any element-local
// transform) touches each output element while its cache line is still
// resident from the matmul write, instead of re-streaming the whole output
// from memory in a follow-up pass.
func (t *Tensor) MatMulBias(o, bias *Tensor, ep Epilogue) *Tensor {
	if len(t.shape) != 2 || len(o.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulBias requires rank-2 operands, got %v and %v", t.shape, o.shape))
	}
	m, k := t.shape[0], t.shape[1]
	k2, n := o.shape[0], o.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulBias inner dimensions differ: %v @ %v", t.shape, o.shape))
	}
	if bias != nil && (len(bias.shape) != 1 || bias.shape[0] != n) {
		panic(fmt.Sprintf("tensor: MatMulBias bias shape %v does not match output columns %d", bias.shape, n))
	}
	out := New(m, n)
	defer func(start time.Time) { recordMatMul(start, m, n, k) }(time.Now())
	accum := ep.Accum
	var quant Rounding
	var faults []AccumFault
	if accum.Active() {
		quant, faults = accum.Quant, faultsByRowStep(accum.Faults)
	}
	work := func(lo, hi int) {
		if accum.Active() {
			matmulRowsAccum(out.data, t.data, o.data, lo, hi, k, n, quant, faults)
		} else {
			matmulRows(out.data, t.data, o.data, lo, hi, k, n)
		}
		if bias != nil {
			for i := lo; i < hi; i++ {
				ci := out.data[i*n : (i+1)*n]
				for j := range ci {
					ci[j] += bias.data[j]
				}
			}
			// With a quantizing accumulator the bias add is one more
			// accumulation step: the register rounds after it like after
			// every multiply-accumulate.
			if quant != nil {
				quant.Round(out.data[lo*n : hi*n])
			}
		}
		if ep.Tile != nil {
			ep.Tile(out.data[lo*n : hi*n])
		}
	}
	ParallelRows(m, n, work)
	ep.Apply(out.data)
	return out
}

// MatMulT returns t @ oᵀ for shapes (m, k) and (n, k). This avoids
// materializing the transpose in attention and backward passes.
func (t *Tensor) MatMulT(o *Tensor) *Tensor {
	if len(t.shape) != 2 || len(o.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulT requires rank-2 operands, got %v and %v", t.shape, o.shape))
	}
	m, k := t.shape[0], t.shape[1]
	n, k2 := o.shape[0], o.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dimensions differ: %v @ %vᵀ", t.shape, o.shape))
	}
	out := New(m, n)
	defer func(start time.Time) { recordMatMul(start, m, n, k) }(time.Now())
	work := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := t.data[i*k : (i+1)*k]
			ci := out.data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := o.data[j*k : (j+1)*k]
				var sum float32
				for p := range ai {
					sum += float32(ai[p] * bj[p])
				}
				ci[j] = sum
			}
		}
	}
	ParallelRows(m, n, work)
	return out
}

// TMatMul returns tᵀ @ o for shapes (k, m) and (k, n), producing (m, n).
// Used by backward passes to compute weight gradients without a transpose
// copy.
func (t *Tensor) TMatMul(o *Tensor) *Tensor {
	if len(t.shape) != 2 || len(o.shape) != 2 {
		panic(fmt.Sprintf("tensor: TMatMul requires rank-2 operands, got %v and %v", t.shape, o.shape))
	}
	k, m := t.shape[0], t.shape[1]
	k2, n := o.shape[0], o.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: TMatMul inner dimensions differ: %vᵀ @ %v", t.shape, o.shape))
	}
	out := New(m, n)
	defer func(start time.Time) { recordMatMul(start, m, n, k) }(time.Now())
	// Accumulate rank-1 updates; the outer loop runs over the shared k axis,
	// so sharding happens over output rows to stay race-free.
	work := func(lo, hi int) {
		for p := 0; p < k; p++ {
			ap := t.data[p*m : (p+1)*m]
			bp := o.data[p*n : (p+1)*n]
			for i := lo; i < hi; i++ {
				av := ap[i]
				if av == 0 {
					continue
				}
				ci := out.data[i*n : (i+1)*n]
				for j := range ci {
					ci[j] += float32(av * bp[j])
				}
			}
		}
	}
	ParallelRows(m, n, work)
	return out
}

// Transpose2D returns the transpose of a rank-2 tensor.
func (t *Tensor) Transpose2D() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose2D requires a rank-2 tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = t.data[i*n+j]
		}
	}
	return out
}

// ParallelMinElems is the element count from which ParallelRows shards
// its rows across goroutines. Below it, the goroutine fan-out costs more
// than it saves on the small tensors this simulator works with.
const ParallelMinElems = 16 * 1024

// ParallelRows runs f over [0, rows) of a rows×rowLen matrix: in one call
// on the calling goroutine when the matrix holds fewer than
// ParallelMinElems elements or a single row, else in contiguous row chunks,
// one per GOMAXPROCS worker, waiting for all of them. It is the one fan-out
// of the GEMMs and the emulation kernels; f must only touch its own rows.
func ParallelRows(rows, rowLen int, f func(lo, hi int)) {
	workers := 1
	if rows*rowLen >= ParallelMinElems {
		workers = min(runtime.GOMAXPROCS(0), rows)
	}
	if workers <= 1 {
		f(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(lo, hi)
		}()
	}
	wg.Wait()
}
