package numfmt

import (
	"math"
	"testing"

	"goldeneye/internal/rng"
)

// accumFormats are the metadata-free presets an accumulator role accepts:
// every FP preset with and without denormals, both FxP presets, and both
// posit and LNS presets.
func accumFormats() []Format {
	var fs []Format
	for _, dn := range []bool{true, false} {
		fs = append(fs, FP32(dn), FP16(dn), BFloat16(dn), TensorFloat32(dn), DLFloat(dn), FP8E4M3(dn), FP8E5M2(dn))
	}
	return append(fs, FxP16(), FxP32(), Posit8(), Posit16(), LNS8(), LNS16())
}

// accumEdgeBits returns the float32 bit patterns where a row rounding and
// the scalar round trip are most likely to part: ±NaN with and without
// payloads, ±Inf, ±0, float32 subnormals and min normal, and one ulp
// around the float32 max-finite and f's own max-finite.
func accumEdgeBits(f Format) []uint32 {
	bits := []uint32{
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fc12345, 0xffbfffff,
		0x7f800000, 0xff800000, 0, 0x80000000,
		1, 0x80000001, 0x007fffff, 0x807fffff, 0x00800000, 0x80800000,
		0x7f7ffffe, 0x7f7fffff, 0xff7fffff,
	}
	maxBits := math.Float32bits(float32(f.Range().AbsMax))
	for _, b := range []uint32{maxBits - 1, maxBits, maxBits + 1} {
		bits = append(bits, b, b|0x80000000)
	}
	return bits
}

// The rounding AccumRounding returns must round every element exactly as
// the scalar FromBits∘ToBits round trip does — NaN sign and payload
// included — for every accumulator preset, over the edge patterns, normal
// values swept from deep-subnormal to saturation, and random bit patterns
// (about 0.4% of which are NaNs).
func TestAccumRoundRowMatchesScalar(t *testing.T) {
	meta := Metadata{Kind: MetaNone}
	for _, f := range accumFormats() {
		r := rng.New(19)
		row := []float32{}
		for _, b := range accumEdgeBits(f) {
			row = append(row, math.Float32frombits(b))
		}
		for _, scale := range []float64{1e-40, 1e-9, 1e-3, 1, 1e3, 1e9, 1e38} {
			for i := 0; i < 64; i++ {
				row = append(row, float32(r.NormFloat64()*scale))
			}
		}
		for i := 0; i < 4096; i++ {
			row = append(row, math.Float32frombits(uint32(r.Uint64())))
		}
		in := append([]float32(nil), row...)
		AccumRounding(f).Round(row)
		for i, v := range in {
			want := float32(f.FromBits(f.ToBits(float64(v), meta), meta))
			if math.Float32bits(row[i]) != math.Float32bits(want) {
				t.Fatalf("%s: input %08x rounds to %08x, scalar round trip %08x",
					f.Name(), math.Float32bits(v), math.Float32bits(row[i]), math.Float32bits(want))
			}
		}
	}
}
