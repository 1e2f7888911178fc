//go:build !purego

package tensor

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
