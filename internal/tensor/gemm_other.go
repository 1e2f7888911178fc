//go:build !amd64 || purego

package tensor

// matmulRows computes rows [lo, hi) of C += A @ B. Without the amd64
// assembly kernel (other architectures, or the purego build tag) it is the
// portable loop.
func matmulRows(c, a, b []float32, lo, hi, k, n int) {
	matmulRowsGo(c, a, b, lo, hi, k, n)
}
