//go:build !purego

package tensor

import (
	"cmp"
	"slices"
)

// hasAVX2 gates the assembly GEMM kernel: the CPU executes AVX2 and the
// operating system saves the YMM registers across context switches.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmXmm  = 0b110   // XCR0: SSE and AVX state enabled
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXmm != ymmXmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gemmBlockAVX2 adds A·B to rows [0, rows) of C, 1 ≤ rows ≤ 4: c and a
// point at the block's first rows of C (row stride n) and A (row stride
// k), b at B (k×n), and k, n > 0. It computes each element with the same
// float32 operations, in the same order, as matmulRowsGo.
//
//go:noescape
func gemmBlockAVX2(c, a, b *float32, rows, k, n int)

// matmulRows computes rows [lo, hi) of C += A @ B: through the AVX2 kernel
// in blocks of four rows where the CPU has it, else through matmulRowsGo.
// Both give every element the same bits.
func matmulRows(c, a, b []float32, lo, hi, k, n int) {
	if !hasAVX2 || k == 0 || n == 0 {
		matmulRowsGo(c, a, b, lo, hi, k, n)
		return
	}
	b = b[:k*n]
	for i := lo; i < hi; i += 4 {
		r := min(4, hi-i)
		gemmBlockAVX2(&c[i*n : (i+r)*n][0], &a[i*k : (i+r)*k][0], &b[0], r, k, n)
	}
}

// fpRoundAVX2 rounds data[0:n] in place as r.roundGo does, n > 0.
//
//go:noescape
func fpRoundAVX2(data *float32, n int, r *FPRound)

// Round implements Rounding: in the AVX2 kernel where the CPU has it, else
// in the portable loop. Both give every element the same bits.
func (r *FPRound) Round(data []float32) {
	if !hasAVX2 || len(data) == 0 {
		r.roundGo(data)
		return
	}
	fpRoundAVX2(&data[0], len(data), r)
}

// gemmAccumAVX2 runs reduction steps [p0, p0+steps) of the accumulator
// GEMM on rows [0, rows) of C, 1 ≤ rows ≤ 4, rounding through r after
// every step whose A value is nonzero: c points at the block's first row
// of C (row stride n), a at its A[0][p0] (row stride lda), b at B[p0][0]
// (row stride n), and steps, n > 0. Every element gets the bits of
// matmulRowsAccumGo's step loop with r as its rounding and no faults.
//
//go:noescape
func gemmAccumAVX2(c, a, b *float32, rows, steps, lda, n int, r *FPRound)

// matmulRowsAccum is the accumulator GEMM over rows [lo, hi) (see
// matmulRowsAccumGo). With an FPRound accumulator on a CPU with AVX2 it
// runs the rows in blocks of four through gemmAccumAVX2, which keeps each
// tile of C in registers across the reduction and rounds it there. A
// block's faults split its reduction into segments that end at each fault
// step: after a segment the block's faults of that step land in memory,
// in (row, step) order, and the next segment reloads C. Faults outside
// [0, k) never land, as in the Go sweep. Every other hook runs the Go
// sweep.
func matmulRowsAccum(c, a, b []float32, lo, hi, k, n int, quant Rounding, faults []AccumFault) {
	fp, ok := quant.(*FPRound)
	if !ok || !hasAVX2 || k == 0 || n == 0 {
		matmulRowsAccumGo(c, a, b, lo, hi, k, n, quant, faults)
		return
	}
	b = b[:k*n]
	next, _ := slices.BinarySearchFunc(faults, lo, func(f AccumFault, row int) int { return cmp.Compare(f.Row, row) })
	for i := lo; i < hi; i += 4 {
		r := min(4, hi-i)
		end := next
		for end < len(faults) && faults[end].Row < i+r {
			end++
		}
		bf := faults[next:end]
		next = end
		for p := 0; p < k; {
			s := k
			for _, f := range bf {
				if f.Step >= p && f.Step < s {
					s = f.Step
				}
			}
			q := min(s+1, k)
			gemmAccumAVX2(&c[i*n : (i+r)*n][0], &a[i*k+p : (i+r)*k][0], &b[p*n], r, q-p, k, n, fp)
			for _, f := range bf {
				if f.Step == s && s < k {
					ci := c[f.Row*n : (f.Row+1)*n]
					ci[f.Col] = f.Apply(ci[f.Col])
				}
			}
			p = q
		}
	}
}
