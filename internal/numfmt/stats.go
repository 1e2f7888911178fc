package numfmt

import "sync/atomic"

// OpCounts is a snapshot of the package's quantization-op counters: how
// many times each Format method ran and how many tensor elements passed
// through them in total. An Emulate that goes through the generic
// code-based path (a Generic format) also counts the internal
// Quantize/Dequantize pair, which is exactly the extra work Fig 3's
// overhead dichotomy is about — the counters make the fast-path/slow-path
// split visible.
type OpCounts struct {
	Quantize   int64 // Quantize calls
	Dequantize int64 // Dequantize calls
	Emulate    int64 // Emulate calls
	Elements   int64 // tensor elements processed across all three

	// Kernel-path split for Emulate work: FusedKernels counts executions of
	// a single-pass kernel, epilogue and batched row invocations included
	// (every built-in family: FP, FxP, INT, BFP, AFP, posit, LNS, LUT);
	// GenericKernels counts trips through the quantize→dequantize code
	// path (emulateViaCodes, run by Generic formats). Every Emulate the
	// package counts runs one of the two, so Emulate equals their sum.
	FusedKernels   int64
	GenericKernels int64
}

// opStats holds the live counters: package-global atomics so that the
// stateless, concurrently used Format implementations need no per-instance
// plumbing. The telemetry registry reads them through a collector
// (goldeneye.RegisterRuntimeCollectors).
var opStats struct {
	quantize, dequantize, emulate, elements atomic.Int64
	kernelFused, kernelGeneric              atomic.Int64
}

func countQuantize(n int) {
	opStats.quantize.Add(1)
	opStats.elements.Add(int64(n))
}

func countDequantize(n int) {
	opStats.dequantize.Add(1)
	opStats.elements.Add(int64(n))
}

// countEmulateFused records one Emulate over n elements run by a fused
// kernel; countEmulateGeneric one run by the generic code path.
func countEmulateFused(n int) {
	opStats.emulate.Add(1)
	opStats.elements.Add(int64(n))
	opStats.kernelFused.Add(1)
}

func countEmulateGeneric(n int) {
	opStats.emulate.Add(1)
	opStats.elements.Add(int64(n))
	opStats.kernelGeneric.Add(1)
}

// ReadOpCounts returns the current counter values (each field read
// atomically; the set is not one atomic snapshot).
func ReadOpCounts() OpCounts {
	return OpCounts{
		Quantize:       opStats.quantize.Load(),
		Dequantize:     opStats.dequantize.Load(),
		Emulate:        opStats.emulate.Load(),
		Elements:       opStats.elements.Load(),
		FusedKernels:   opStats.kernelFused.Load(),
		GenericKernels: opStats.kernelGeneric.Load(),
	}
}
