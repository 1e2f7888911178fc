package numfmt

// Fused single-pass emulation kernels.
//
// The generic Emulate path (emulateViaCodes) materializes an Encoding —
// one Bits word per element plus metadata — only to throw it away after
// decoding: two full passes, two allocations, and a per-element trip
// through the scalar ToBits/FromBits machinery. That is exactly the
// "Python-speed" side of the paper's Fig 3 dichotomy, and the reason the
// batched campaign engine never paid on formats with hardware metadata.
//
// The kernels in this file collapse the round trip into one in-place,
// branch-reduced pass over the float32 storage: derive the row's (or
// block's) metadata from the same max-magnitude scan Quantize performs,
// then snap every element to its representable value directly. Each kernel
// is pinned bit-identical to Dequantize∘Quantize by the property suite
// (TestEmulateMatchesCodePathProperty), the differential fuzz target
// (FuzzEmulateFusedVsGeneric), and the campaign golden files — a fused
// kernel that changes one bit is a bug, not a speedup.
//
// LNS, Posit, and LUT keep their existing paths: their table- and
// search-based decodes have no profitable arithmetic fusion.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"goldeneye/internal/tensor"
)

// rowEmulator is implemented by formats with a fused single-pass kernel.
// emulateRowsInPlace snaps data — `rows` contiguous rows of rowLen
// elements — to the format's representable values, deriving any hardware
// metadata (INT scale, BFP shared exponents, AFP bias) from each row
// alone. Element-local formats (FP, FxP) ignore the row geometry.
type rowEmulator interface {
	emulateRowsInPlace(data []float32, rows, rowLen int)
}

// Compile-time checks: the fused-kernel families of the tentpole.
var (
	_ rowEmulator = (*FP)(nil)
	_ rowEmulator = (*FxP)(nil)
	_ rowEmulator = (*INT)(nil)
	_ rowEmulator = (*BFP)(nil)
	_ rowEmulator = (*AFP)(nil)
)

// fusedDisabled gates the fused kernels globally. The zero value (false)
// means fused kernels are ON; the bench harness flips it to measure the
// pre-fusion baseline. It is not meant to be toggled concurrently with
// running campaigns.
var fusedDisabled atomic.Bool

// SetFusedKernels enables or disables the fused single-pass emulation
// kernels and returns the previous setting. Disabling restores the
// pre-fusion paths — the generic quantize→dequantize double pass for BFP
// and AFP, and the per-sample Slice+Emulate loop in EmulateBatched — which is
// the serial baseline the bench matrix measures speedups against. FP, FxP,
// and INT keep their whole-tensor arithmetic fast paths in both modes
// (those predate the fused kernels and are part of the baseline).
func SetFusedKernels(on bool) bool {
	return !fusedDisabled.Swap(!on)
}

// FusedKernels reports whether the fused emulation kernels are enabled.
func FusedKernels() bool { return !fusedDisabled.Load() }

// EmulateGeneric runs f's generic quantize→dequantize Emulate path
// regardless of the fused-kernel toggle. Differential tests and the bench
// harness use it as the reference the fused kernels must match bit for
// bit.
func EmulateGeneric(f Format, t *tensor.Tensor) *tensor.Tensor {
	countEmulate(t.Len())
	return emulateViaCodes(f, t)
}

// HasFusedKernel reports whether f ships a fused single-pass Emulate
// kernel (the fp/fxp/intq/bfp/afp families).
func HasFusedKernel(f Format) bool {
	_, ok := f.(rowEmulator)
	return ok
}

// EmulateEpilogue returns a tensor.Epilogue that applies f's fused
// emulation kernel in place to freshly produced layer outputs — the
// cache-hot alternative to a follow-up EmulateBatched pass over an n-sample
// pass's activation. Metadata is derived from each sample's contiguous
// len/n span alone (n = 1: from the whole output), matching EmulateBatched
// bit for bit. Element-local formats fuse at tile granularity so matmul
// workers emulate their own output chunks.
//
// The returned epilogue is empty — and callers fall back to the hook path
// — when f has no fused kernel or fused kernels are disabled.
func EmulateEpilogue(f Format, n int) tensor.Epilogue {
	re, ok := f.(rowEmulator)
	if !ok || !FusedKernels() {
		return tensor.Epilogue{}
	}
	if batchInvariant(f) {
		// Element-local: any contiguous chunk is a valid unit of work.
		return tensor.Epilogue{Tile: func(chunk []float32) {
			countEmulate(len(chunk))
			countKernelFused()
			re.emulateRowsInPlace(chunk, 1, len(chunk))
		}}
	}
	return tensor.Epilogue{Whole: func(data []float32) {
		if len(data)%n != 0 {
			panic(fmt.Sprintf("numfmt: %d samples do not divide a %d-element output", n, len(data)))
		}
		countEmulate(len(data))
		countKernelFused()
		emulateRowsParallel(re, data, n, len(data)/n)
	}}
}

// emulateRowsParallel applies re's fused kernel over rows (a pass's
// samples) with a bounded worker fan-out: contiguous row chunks, one
// goroutine per GOMAXPROCS slot, mirroring the tensor package's
// parallelRows. Small tensors stay on the calling goroutine.
func emulateRowsParallel(re rowEmulator, data []float32, rows, rowLen int) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if rows*rowLen < emulateRowParallelMin || workers <= 1 {
		re.emulateRowsInPlace(data, rows, rowLen)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			re.emulateRowsInPlace(data[lo*rowLen:hi*rowLen], hi-lo, rowLen)
		}(lo, hi)
	}
	wg.Wait()
}
