package numfmt

import (
	"fmt"

	"goldeneye/internal/tensor"
)

// This file is the per-sample quantization path that makes batched fault
// injection bit-identical to batch-1 execution (the paper's batching lever,
// §IV-B). Formats whose metadata is computed from tensor-wide statistics
// (the INT/LUT scale from AbsMax, the AFP exponent bias, BFP's shared
// exponents blocked over the flattened tensor) would otherwise couple a
// sample's codes to its batchmates; here a pass over n samples quantizes
// each sample — its contiguous Dim(0)/n leading rows — from a sliced view,
// so its codes and registers match a batch-1 encoding of the same sample
// exactly. One sample is the whole tensor: n = 1 is plain per-tensor
// quantization.

// batchInvariant reports whether f quantizes each element independently of
// the rest of the tensor, making whole-batch calls bit-identical to
// per-sample calls. Only the formats audited for element independence
// qualify; unknown Format implementations conservatively take the
// per-sample path.
func batchInvariant(f Format) bool {
	switch f.(type) {
	case *FP, *FxP, *LNS, *Posit:
		return true
	}
	return false
}

// sampleRows returns the leading rows each of a pass's n samples occupies
// in t. It panics when n does not divide t's leading dimension: the hooks
// of an n-sample pass only ever see n-sample activations.
func sampleRows(t *tensor.Tensor, n int) int {
	if n < 1 || t.Dim(0)%n != 0 {
		panic(fmt.Sprintf("numfmt: %d samples do not divide the %d leading rows of %v", n, t.Dim(0), t.Shape()))
	}
	return t.Dim(0) / n
}

// QuantizeBatched converts t, the activation of an n-sample pass, into
// format space with per-sample metadata: sample s's codes and registers
// are exactly those of f.Quantize applied to its own Dim(0)/n leading
// rows. For n > 1 the encoding holds them in RowMeta and leaves Meta zero;
// n = 1 is f.Quantize(t).
func QuantizeBatched(f Format, t *tensor.Tensor, n int) *Encoding {
	g := sampleRows(t, n)
	if n == 1 {
		return f.Quantize(t)
	}
	span := t.Len() / n
	enc := &Encoding{
		Codes:   make([]Bits, t.Len()),
		Shape:   append([]int(nil), t.Shape()...),
		RowMeta: make([]Metadata, n),
	}
	for s := 0; s < n; s++ {
		se := f.Quantize(t.Slice(s*g, (s+1)*g))
		copy(enc.Codes[s*span:(s+1)*span], se.Codes)
		enc.RowMeta[s] = se.Meta
	}
	return enc
}

// DequantizeBatched reconstructs real values from a QuantizeBatched
// encoding, decoding each sample under its own metadata. It is the inverse
// of QuantizeBatched and bit-identical per sample to f.Dequantize on a
// batch-1 encoding.
func DequantizeBatched(f Format, enc *Encoding) *tensor.Tensor {
	if enc.RowMeta == nil {
		return f.Dequantize(enc)
	}
	n := len(enc.RowMeta)
	span := len(enc.Codes) / n
	sampleShape := append([]int{enc.Shape[0] / n}, enc.Shape[1:]...)
	out := tensor.New(enc.Shape...)
	dst := out.Data()
	for s := 0; s < n; s++ {
		se := &Encoding{
			Codes: enc.Codes[s*span : (s+1)*span],
			Shape: sampleShape,
			Meta:  enc.RowMeta[s],
		}
		copy(dst[s*span:(s+1)*span], f.Dequantize(se).Data())
	}
	return out
}

// EmulateBatched is the batched inference-emulation hot path: emulation of
// an n-sample pass's activation t in which every sample's metadata is
// derived from that sample alone (n = 1: f.Emulate(t)). Batch-invariant
// formats keep their whole-tensor fast path (already bit-identical per
// sample). Metadata-bearing formats with a fused kernel (INT, BFP, AFP,
// LUT) run it directly over sample slices of one output buffer — no
// per-sample tensor allocation, no quantize/dequantize round trip — with a
// GOMAXPROCS-bounded fan-out for large activations (tensor.ParallelRows).
// Formats without a fused kernel (Generic, formats from outside this
// package) emulate sliced views through their own Emulate, over the same
// fan-out; that is what the fused path is pinned bit-identical to.
func EmulateBatched(f Format, t *tensor.Tensor, n int) *tensor.Tensor {
	g := sampleRows(t, n)
	if n == 1 || batchInvariant(f) {
		return f.Emulate(t)
	}
	if re, ok := f.(rowEmulator); ok {
		out := t.Clone()
		emulateSamples(re, out.Data(), n)
		return out
	}
	span := t.Len() / n
	out := tensor.New(t.Shape()...)
	dst := out.Data()
	tensor.ParallelRows(n, span, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			copy(dst[s*span:(s+1)*span], f.Emulate(t.Slice(s*g, (s+1)*g)).Data())
		}
	})
	return out
}
