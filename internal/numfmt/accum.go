package numfmt

// AccumRound returns the rounding a GEMM applies to its partial sums when
// its accumulator register runs in format f: the function rounds every
// element of a row of partial sums in place, each to exactly the value of a
// ToBits→FromBits round trip under empty metadata. The GEMM calls it once
// per multiply-accumulate step on the output row it just updated (and once
// more after the bias add). A nil f returns nil — the native float32
// accumulator, which producers treat as "no rounding".
//
// Only metadata-free formats (MetaNone: FP, FxP, posit, LNS) make valid
// accumulator formats: per-tensor scales, shared exponents, and adaptive
// biases are derived from a completed tensor and cannot exist mid-reduction.
// Campaign validation enforces this; AccumRound itself just passes empty
// metadata, which such formats ignore. Every such format rounds each
// element independently, so a caller may hand the function any contiguous
// run of partial sums.
//
// FP and FxP — the element-local families with a fused kernel — round the
// row with that kernel. FP's canonicalizes NaN to float32(math.NaN()) as
// FromBits does: the register's NaN must not keep an input's sign or
// payload, which a later bit flip of the register would see. FxP maps NaN
// to 0 like its scalar path. Posit and LNS loop the scalar round trip over
// the row. The function is stateless and safe for concurrent use from the
// GEMM's row-sharded worker goroutines.
func AccumRound(f Format) func(row []float32) {
	switch f := f.(type) {
	case nil:
		return nil
	case *FP:
		return f.emulateChunk
	case *FxP:
		return f.emulateChunk
	}
	meta := Metadata{Kind: MetaNone}
	return func(row []float32) {
		for i, v := range row {
			row[i] = float32(f.FromBits(f.ToBits(float64(v), meta), meta))
		}
	}
}
