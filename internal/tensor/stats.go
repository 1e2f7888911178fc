package tensor

import (
	"sync/atomic"
	"time"
)

// OpStats is a snapshot of the package's kernel counters. Nanos fields are
// cumulative wall-clock time; FLOPs counts 2·m·n·k per matrix multiply
// (multiply-accumulate = 2 operations), the conventional accounting.
type OpStats struct {
	MatMulCalls int64 // MatMul + MatMulT + TMatMul invocations
	MatMulNanos int64
	MatMulFLOPs int64
	Im2ColCalls int64
	Im2ColNanos int64
}

// ops holds the live counters. They are package-global atomics rather than
// per-tensor state so that instrumentation needs no plumbing through the
// nn substrate; the telemetry registry reads them through a collector
// (goldeneye.RegisterRuntimeCollectors). Two atomic adds and two time.Now
// calls per kernel invocation are noise next to the kernels themselves.
var ops struct {
	matmulCalls, matmulNanos, matmulFLOPs atomic.Int64
	im2colCalls, im2colNanos              atomic.Int64
}

// recordMatMul accounts one finished matrix multiply of shape (m,k)@(k,n).
func recordMatMul(start time.Time, m, n, k int) {
	ops.matmulCalls.Add(1)
	ops.matmulNanos.Add(time.Since(start).Nanoseconds())
	ops.matmulFLOPs.Add(2 * int64(m) * int64(n) * int64(k))
}

// recordIm2Col accounts one finished im2col expansion.
func recordIm2Col(start time.Time) {
	ops.im2colCalls.Add(1)
	ops.im2colNanos.Add(time.Since(start).Nanoseconds())
}

// ReadOpStats returns the current counter values. The fields are read
// individually (each atomically), which is sufficient for monitoring.
func ReadOpStats() OpStats {
	return OpStats{
		MatMulCalls: ops.matmulCalls.Load(),
		MatMulNanos: ops.matmulNanos.Load(),
		MatMulFLOPs: ops.matmulFLOPs.Load(),
		Im2ColCalls: ops.im2colCalls.Load(),
		Im2ColNanos: ops.im2colNanos.Load(),
	}
}
