//go:build !amd64 || purego

package tensor

// matmulRows computes rows [lo, hi) of C += A @ B. Without the amd64
// assembly kernels (other architectures, or the purego build tag) it is the
// portable loop.
func matmulRows(c, a, b []float32, lo, hi, k, n int) {
	matmulRowsGo(c, a, b, lo, hi, k, n)
}

// matmulRowsAccum is the accumulator GEMM over rows [lo, hi): here always
// the portable sweep.
func matmulRowsAccum(c, a, b []float32, lo, hi, k, n int, quant Rounding, faults []AccumFault) {
	matmulRowsAccumGo(c, a, b, lo, hi, k, n, quant, faults)
}

// Round implements Rounding with the portable loop.
func (r *FPRound) Round(data []float32) { r.roundGo(data) }
