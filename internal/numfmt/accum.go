package numfmt

import "goldeneye/internal/tensor"

// chunkEmulator is implemented by the element-local formats (FP, FxP,
// posit, LNS): emulateChunk rounds any contiguous run of float32 storage in
// place with the format's fused kernel.
type chunkEmulator interface {
	emulateChunk(data []float32)
}

// AccumRounding returns the rounding a GEMM applies to its partial sums
// when its accumulator register runs in format f, as the value a
// tensor.AccumHook carries in its Quant field. Its Round rounds every
// element of a row of partial sums in place, each to exactly the value of a
// ToBits→FromBits round trip under empty metadata. The GEMM rounds the
// output row it just updated after every multiply-accumulate step whose A
// value is nonzero (and once more after the bias add). A nil f returns nil
// — the native float32 accumulator, which producers treat as "no
// rounding".
//
// Only metadata-free formats (MetaNone: FP, FxP, posit, LNS) make valid
// accumulator formats: per-tensor scales, shared exponents, and adaptive
// biases are derived from a completed tensor and cannot exist mid-reduction.
// Campaign validation enforces this; AccumRounding itself just passes empty
// metadata, which such formats ignore. Every such format rounds each
// element independently, so a caller may hand Round any contiguous run of
// partial sums.
//
// For an FP format up to e8m22 (every FP preset but FP32) the rounding is
// the format's tensor.FPRound, whose parameters let the GEMM's AVX2 tile
// round each partial sum in registers. FP and FxP otherwise round the row
// with their fused kernel. FP's canonicalizes NaN to float32(math.NaN()) as
// FromBits does: the register's NaN must not keep an input's sign or
// payload, which a later bit flip of the register would see. FxP maps NaN
// to 0 like its scalar path. Posit and LNS round the row through their
// segment table (segtable.go), which maps NaN as FromBits∘ToBits does:
// posit to the canonical NaN, LNS to +0. Any other format loops the
// scalar round trip over the row. The rounding is stateless and safe for
// concurrent use from the GEMM's row-sharded worker goroutines.
func AccumRounding(f Format) tensor.Rounding {
	if f == nil {
		return nil
	}
	if fp, ok := f.(*FP); ok && fp.round != nil {
		return fp.round
	}
	if c, ok := f.(chunkEmulator); ok {
		return tensor.RoundFunc(c.emulateChunk)
	}
	meta := Metadata{Kind: MetaNone}
	return tensor.RoundFunc(func(row []float32) {
		for i, v := range row {
			row[i] = float32(f.FromBits(f.ToBits(float64(v), meta), meta))
		}
	})
}
