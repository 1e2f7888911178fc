package goldeneye_test

import (
	"math"
	"testing"

	"goldeneye"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/tensor"
)

// FuzzParseFormat ensures arbitrary specifications never panic and that
// accepted specifications produce usable formats.
func FuzzParseFormat(f *testing.F) {
	for _, seed := range []string{
		"fp16", "fp_e4m3", "fxp_1_7_8", "int8", "bfp_e5m5_b16",
		"afp_e4m4", "posit8", "posit12_es2", "lns_5_2", "nf4",
		"", "fp_", "int999", "posit99", "nf", "bfp_e99m99",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		format, err := goldeneye.ParseFormat(spec)
		if err != nil {
			return // rejected specs are fine; panics are not
		}
		if format.BitWidth() <= 0 || format.BitWidth() > 64 {
			t.Fatalf("%q: implausible bit width %d", spec, format.BitWidth())
		}
		r := format.Range()
		if r.AbsMax <= 0 || r.MinPos <= 0 || r.AbsMax < r.MinPos {
			t.Fatalf("%q: implausible range %+v", spec, r)
		}
	})
}

// FuzzFP16BitsRoundTrip checks that every 16-bit pattern decodes and
// re-encodes consistently: FromBits then ToBits then FromBits is stable.
func FuzzFP16BitsRoundTrip(f *testing.F) {
	f.Add(uint16(0))
	f.Add(uint16(0x3C00)) // 1.0
	f.Add(uint16(0x7BFF)) // max finite
	f.Add(uint16(0x7C00)) // +Inf
	f.Add(uint16(0x7C01)) // NaN
	f.Add(uint16(0x8001)) // -min denormal
	format := numfmt.FP16(true)
	meta := numfmt.Metadata{Kind: numfmt.MetaNone}
	f.Fuzz(func(t *testing.T, pattern uint16) {
		v := format.FromBits(numfmt.Bits(pattern), meta)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return // exceptional values round-trip through saturation
		}
		again := format.FromBits(format.ToBits(v, meta), meta)
		if again != v {
			t.Fatalf("pattern %04x: %v re-encoded to %v", pattern, v, again)
		}
	})
}

// FuzzPosit8Decode exercises every 8-bit posit pattern: decode must be
// finite (except NaR), and encode(decode(p)) must reproduce the value.
func FuzzPosit8Decode(f *testing.F) {
	for _, seed := range []uint8{0, 0x40, 0x80, 0xC0, 0x01, 0x7F, 0xFF} {
		f.Add(seed)
	}
	p := numfmt.Posit8()
	meta := numfmt.Metadata{Kind: numfmt.MetaNone}
	f.Fuzz(func(t *testing.T, pattern uint8) {
		v := p.FromBits(numfmt.Bits(pattern), meta)
		if math.IsNaN(v) {
			if pattern != 0x80 {
				t.Fatalf("pattern %02x decoded NaN but is not NaR", pattern)
			}
			return
		}
		if math.IsInf(v, 0) {
			t.Fatalf("posit pattern %02x decoded Inf", pattern)
		}
		again := p.FromBits(p.ToBits(v, meta), meta)
		if again != v {
			t.Fatalf("pattern %02x: %v re-encoded to %v", pattern, v, again)
		}
	})
}

// FuzzEmulateFusedVsGeneric is the differential proof behind the fused
// kernels: for arbitrary float inputs, every family's single-pass fused
// Emulate must be bit-identical to the generic quantize→dequantize
// reference (numfmt.Generic), NaN included: both paths map every NaN
// input alike, to float32(math.NaN()) (FP, posit) or to +0 (FxP, INT,
// BFP, AFP, LNS, LUT). The grouped case holds the same for the
// per-sample path (numfmt.EmulateBatched over two samples), which gives
// each sample its own INT/LUT scale, BFP shared exponent and AFP bias.
func FuzzEmulateFusedVsGeneric(f *testing.F) {
	f.Add(uint32(0), uint32(math.Float32bits(1.0)), uint32(math.Float32bits(-3.5)), uint32(0x7FC00001))
	f.Add(uint32(math.Float32bits(1e30)), uint32(math.Float32bits(-1e-30)),
		uint32(math.Float32bits(float32(math.Inf(1)))), uint32(0x80000000))
	f.Add(uint32(1), uint32(0x007FFFFF), uint32(0x00800000), uint32(0xFF7FFFFF))
	formats := []numfmt.Format{
		numfmt.FP16(true), numfmt.FP8E4M3(true), numfmt.FxP16(),
		numfmt.INT8(), numfmt.BFPe5m5(), numfmt.AFPe5m2(),
		numfmt.Posit8(), numfmt.Posit16(), numfmt.LNS8(), numfmt.LNS16(), numfmt.NF4(),
	}
	f.Fuzz(func(t *testing.T, a, b, c, d uint32) {
		x := tensor.New(1, 4)
		for i, bits := range []uint32{a, b, c, d} {
			x.Data()[i] = math.Float32frombits(bits)
		}
		for _, format := range formats {
			ref := numfmt.Generic(format)
			fused := format.Emulate(x)
			generic := ref.Emulate(x)
			// Grouped: the same values as two 2-element samples, each
			// emulated under its own metadata, against the generic
			// reference of each sample alone.
			grouped := numfmt.EmulateBatched(format, x.Reshape(4, 1), 2)
			halves := ref.Emulate(x.Reshape(4, 1).Slice(0, 2)).Data()
			halves = append(halves, ref.Emulate(x.Reshape(4, 1).Slice(2, 4)).Data()...)
			for i := range fused.Data() {
				fv, gv := fused.Data()[i], generic.Data()[i]
				if math.Float32bits(fv) != math.Float32bits(gv) {
					t.Fatalf("%s: element %d (input %08x): fused %v (%08x) vs generic %v (%08x)",
						format.Name(), i, math.Float32bits(x.Data()[i]),
						fv, math.Float32bits(fv), gv, math.Float32bits(gv))
				}
				if bv, hv := grouped.Data()[i], halves[i]; math.Float32bits(bv) != math.Float32bits(hv) {
					t.Fatalf("%s: grouped element %d (input %08x): fused %v (%08x) vs generic %v (%08x)",
						format.Name(), i, math.Float32bits(x.Data()[i]),
						bv, math.Float32bits(bv), hv, math.Float32bits(hv))
				}
			}
		}
	})
}

// FuzzAccumRoundRowVsScalar is the differential proof behind accumulator
// row rounding: for arbitrary float32 partial sums, the rounding
// numfmt.AccumRounding returns must round every element bit-identically to
// the scalar FromBits∘ToBits round trip, for every metadata-free preset an
// accumulator role accepts. A register holding NaN must hold the canonical
// one.
func FuzzAccumRoundRowVsScalar(f *testing.F) {
	f.Add(uint32(0x7FC00000), uint32(0xFFC00000), uint32(0x7F800001), uint32(0xFFC12345)) // ±NaN, payloads
	f.Add(uint32(0x7F800000), uint32(0xFF800000), uint32(0), uint32(0x80000000))          // ±Inf, ±0
	f.Add(uint32(1), uint32(0x807FFFFF), uint32(0x00400000), uint32(0x80000001))          // subnormals
	f.Add(uint32(0x7F7FFFFE), uint32(0x7F7FFFFF), uint32(0xFF7FFFFF), uint32(0x7F000000)) // float32 max-finite
	f.Add(uint32(0x477FDFFF), uint32(0x477FE000), uint32(0xC77FE001), uint32(0x477FF000)) // fp16 max-finite
	f.Add(uint32(0x42FFFFFE), uint32(0x42FFFE00), uint32(0xC3000000), uint32(0x43000001)) // fxp16 limits
	var formats []numfmt.Format
	for _, dn := range []bool{true, false} {
		formats = append(formats, numfmt.FP32(dn), numfmt.FP16(dn), numfmt.BFloat16(dn),
			numfmt.TensorFloat32(dn), numfmt.DLFloat(dn), numfmt.FP8E4M3(dn), numfmt.FP8E5M2(dn))
	}
	formats = append(formats, numfmt.FxP16(), numfmt.FxP32(),
		numfmt.Posit8(), numfmt.Posit16(), numfmt.LNS8(), numfmt.LNS16())
	meta := numfmt.Metadata{Kind: numfmt.MetaNone}
	f.Fuzz(func(t *testing.T, a, b, c, d uint32) {
		in := []float32{math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c), math.Float32frombits(d)}
		for _, format := range formats {
			row := append([]float32(nil), in...)
			numfmt.AccumRounding(format).Round(row)
			for i, v := range in {
				want := float32(format.FromBits(format.ToBits(float64(v), meta), meta))
				if math.Float32bits(row[i]) != math.Float32bits(want) {
					t.Fatalf("%s: element %d (input %08x): row %v (%08x) vs scalar %v (%08x)",
						format.Name(), i, math.Float32bits(v), row[i], math.Float32bits(row[i]), want, math.Float32bits(want))
				}
			}
		}
	})
}

// FuzzQuantizeScalar feeds arbitrary float bit patterns through every
// format family's scalar path, checking nothing panics and outputs decode
// deterministically.
func FuzzQuantizeScalar(f *testing.F) {
	f.Add(uint64(0))
	f.Add(math.Float64bits(1.0))
	f.Add(math.Float64bits(-1e300))
	f.Add(math.Float64bits(1e-300))
	f.Add(uint64(0x7FF0000000000001)) // NaN
	formats := []numfmt.Format{
		numfmt.FP8E4M3(true), numfmt.FxP16(), numfmt.BFPe5m5(),
		numfmt.AFPe5m2(), numfmt.Posit8(), numfmt.LNS8(),
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		for _, format := range formats {
			meta := numfmt.Metadata{Kind: numfmt.MetaNone}
			b1 := format.ToBits(v, meta)
			b2 := format.ToBits(v, meta)
			if b1 != b2 {
				t.Fatalf("%s: ToBits(%v) not deterministic", format.Name(), v)
			}
		}
	})
}
