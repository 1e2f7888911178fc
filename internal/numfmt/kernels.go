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
// Posit and LNS have no arithmetic fusion; their kernel is a lookup in a
// segment table compiled from the scalar path (segtable.go). The LUT's
// kernel finds each level by a branch-free bisection over cuts derived
// from its scalar comparison (levelIndex).

import (
	"fmt"

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

// Compile-time checks: every built-in family has a fused kernel.
var (
	_ rowEmulator = (*FP)(nil)
	_ rowEmulator = (*FxP)(nil)
	_ rowEmulator = (*INT)(nil)
	_ rowEmulator = (*BFP)(nil)
	_ rowEmulator = (*AFP)(nil)
	_ rowEmulator = (*Posit)(nil)
	_ rowEmulator = (*LNS)(nil)
	_ rowEmulator = (*LUT)(nil)
)

// Generic returns f with Emulate replaced by the literal quantize→dequantize
// round trip through code space (emulateViaCodes) — the semantics every
// fused kernel is pinned bit-identical to, and the code-based backend of
// the paper's Fig 3. Every other method is f's own. A Generic format has
// no fused kernel, so EmulateEpilogue leaves it to the hook path and
// EmulateBatched emulates each sample through its Emulate: differential
// tests, the bench matrix's reference rows and Fig 3 pick the slow path
// per format, without process-wide state.
func Generic(f Format) Format { return generic{f} }

type generic struct{ Format }

func (g generic) Emulate(t *tensor.Tensor) *tensor.Tensor {
	return emulateViaCodes(g.Format, t)
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
// — when f has no fused kernel.
func EmulateEpilogue(f Format, n int) tensor.Epilogue {
	re, ok := f.(rowEmulator)
	if !ok {
		return tensor.Epilogue{}
	}
	if batchInvariant(f) {
		// Element-local: any contiguous chunk is a valid unit of work,
		// emulated as one sample since the kernel ignores the geometry.
		return tensor.Epilogue{Tile: func(chunk []float32) { emulateSamples(re, chunk, 1) }}
	}
	return tensor.Epilogue{Whole: func(data []float32) {
		if len(data)%n != 0 {
			panic(fmt.Sprintf("numfmt: %d samples do not divide a %d-element output", n, len(data)))
		}
		emulateSamples(re, data, n)
	}}
}

// emulateSamples runs re's fused kernel once over data, the activation of
// an n-sample pass, deriving each sample's metadata from its contiguous
// len(data)/n span alone; large activations fan out over tensor.ParallelRows.
func emulateSamples(re rowEmulator, data []float32, n int) {
	countEmulateFused(len(data))
	span := len(data) / n
	tensor.ParallelRows(n, span, func(lo, hi int) {
		re.emulateRowsInPlace(data[lo*span:hi*span], hi-lo, span)
	})
}
