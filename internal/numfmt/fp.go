package numfmt

import (
	"fmt"
	"math"

	"goldeneye/internal/tensor"
)

// FP is a generic IEEE-754-style floating-point format with configurable
// exponent and mantissa widths ("eXmY" in the paper's notation), an optional
// denormal (subnormal) region, round-to-nearest-even, and saturation to the
// largest finite value during quantization. The top exponent code is
// reserved for Inf/NaN exactly as in IEEE-754, so single-bit flips in
// exponent bits can produce the non-finite corruptions the paper observes
// for FP32 (§II-B).
//
// Presets (FP32, FP16, BFloat16, TensorFloat32, DLFloat, FP8 variants) are
// parameter tunings of this one type, as §III-B describes.
type FP struct {
	name      string
	expBits   int
	mantBits  int
	denormals bool

	bias      int
	expMin    int // smallest normal unbiased exponent
	expMax    int // largest normal unbiased exponent
	maxFinite float64
	minNorm   float64
	denStep   float64 // smallest denormal magnitude

	// round is the branch-free rounding of geometries up to e8m22, which
	// emulateChunk and the accumulator GEMM run; nil for wider ones.
	round *tensor.FPRound
}

var _ Format = (*FP)(nil)

// NewFP returns a floating-point format with e exponent bits and m mantissa
// bits (total width 1+e+m). denormals enables the subnormal region; when
// disabled, subnormal magnitudes round to zero or the minimum normal.
func NewFP(e, m int, denormals bool) *FP {
	if e < 2 || e > 11 || m < 1 || m > 52 {
		panic(fmt.Sprintf("numfmt: unsupported FP geometry e%dm%d", e, m))
	}
	bias := (1 << uint(e-1)) - 1
	expMin := 1 - bias
	expMax := (1<<uint(e) - 2) - bias
	f := &FP{
		name:      fmt.Sprintf("fp_e%dm%d", e, m),
		expBits:   e,
		mantBits:  m,
		denormals: denormals,
		bias:      bias,
		expMin:    expMin,
		expMax:    expMax,
		maxFinite: (2 - math.Ldexp(1, -m)) * math.Ldexp(1, expMax),
		minNorm:   math.Ldexp(1, expMin),
		denStep:   math.Ldexp(1, expMin-m),
	}
	if e <= 8 && m <= 22 {
		f.round = tensor.NewFPRound(e, m, denormals)
	}
	if !denormals {
		f.name += "_nodn"
	}
	return f
}

// WithName returns a copy of the format carrying a preset name (e.g. "fp16").
func (f *FP) WithName(name string) *FP {
	c := *f
	c.name = name
	return &c
}

// Name implements Format.
func (f *FP) Name() string { return f.name }

// BitWidth implements Format.
func (f *FP) BitWidth() int { return 1 + f.expBits + f.mantBits }

// MetaBits implements Format; FP carries no hardware metadata.
func (f *FP) MetaBits(int) int { return 0 }

// ExpBits returns the exponent field width.
func (f *FP) ExpBits() int { return f.expBits }

// MantBits returns the mantissa field width.
func (f *FP) MantBits() int { return f.mantBits }

// Denormals reports whether the subnormal region is enabled.
func (f *FP) Denormals() bool { return f.denormals }

// Range implements Format (Table I rows for FP formats).
func (f *FP) Range() Range {
	minPos := f.minNorm
	if f.denormals {
		minPos = f.denStep
	}
	return Range{AbsMax: f.maxFinite, MinPos: minPos}
}

// quantizeScalar returns the nearest representable value to v.
func (f *FP) quantizeScalar(v float64) float64 {
	if v == 0 || math.IsNaN(v) {
		return v
	}
	sign := 1.0
	if v < 0 || math.Signbit(v) {
		sign = -1
	}
	a := math.Abs(v)
	if a >= f.maxFinite {
		return sign * f.maxFinite
	}
	exp := floorLog2(a)
	if exp < f.expMin {
		// Subnormal region.
		if f.denormals {
			q := roundEven(a/f.denStep) * f.denStep
			return sign * q
		}
		// Without denormals the nearest representable values are 0 and
		// minNorm; RNE on the half-way point resolves to 0 (even).
		q := roundEven(a/f.minNorm) * f.minNorm
		return sign * q
	}
	step := math.Ldexp(1, exp-f.mantBits)
	q := roundEven(a/step) * step
	if q > f.maxFinite {
		q = f.maxFinite
	}
	return sign * q
}

// Emulate implements Format with a vectorizable bit-manipulation fast path
// over the float32 storage, mirroring the paper's C++/CUDA-accelerated FP
// backend (§III-C): the common case rounds the IEEE-754 mantissa field
// directly with two integer adds and a mask; only subnormal-region values
// fall back to the scalar arithmetic path. Tests assert exact agreement
// with Dequantize∘Quantize.
func (f *FP) Emulate(t *tensor.Tensor) *tensor.Tensor {
	countEmulateFused(t.Len())
	out := t.Clone()
	f.emulateChunk(out.Data())
	return out
}

// emulateRowsInPlace implements rowEmulator. FP snapping is element-local,
// so the row geometry is irrelevant.
func (f *FP) emulateRowsInPlace(data []float32, _, _ int) {
	f.emulateChunk(data)
}

// canonicalNaN is the float32 every NaN code decodes to through FromBits.
var canonicalNaN = float32(math.NaN())

// emulateChunk snaps a contiguous chunk of float32 storage to the format's
// representable values in place — the shared kernel behind Emulate, the
// batched row variant, the matmul epilogue, and the accumulator register's
// rounding (AccumRounding). Every NaN becomes canonicalNaN, as a
// FromBits∘ToBits round trip gives. Geometries up to e8m22, every preset
// but FP32, run tensor.FPRound, in AVX2 where the CPU has it; the loops
// below serve the wider ones.
func (f *FP) emulateChunk(data []float32) {
	if f.round != nil {
		f.round.Round(data)
		return
	}
	if f.mantBits > 23 {
		// Wider-than-float32 mantissa: every float32 value is exactly
		// representable; only exponent limits can apply.
		for i, v := range data {
			if v != v {
				data[i] = canonicalNaN
				continue
			}
			data[i] = float32(f.quantizeScalar(float64(v)))
		}
		return
	}

	var (
		shift   = uint(23 - f.mantBits)
		low     = uint32(1)<<shift - 1
		half    = uint32(1) << (shift - 1) // undefined when shift == 0; guarded below
		maxBits = math.Float32bits(float32(f.maxFinite))
	)
	// Inputs below the format's minimum normal need denormal handling; in
	// float32-bit terms that is an exponent field below this cutoff. For
	// formats whose normal range extends below float32's (e ≥ 9), only
	// float32-subnormal inputs (exponent field 0) need the slow path.
	cut := f.expMin + 127
	if cut < 1 {
		cut = 1
	}
	minNormField := uint32(cut) << 23
	for i, v := range data {
		b := math.Float32bits(v)
		sign := b & 0x8000_0000
		mag := b &^ 0x8000_0000
		switch {
		case mag == 0:
			continue
		case mag >= 0x7f80_0000:
			// Inf saturates to max finite; NaN becomes the canonical NaN.
			if mag == 0x7f80_0000 {
				data[i] = math.Float32frombits(sign | maxBits)
			} else {
				data[i] = canonicalNaN
			}
			continue
		case mag < minNormField || mag>>23 == 0:
			// Subnormal region of the target format (or of float32 itself,
			// where the exponent-field arithmetic below is invalid).
			data[i] = float32(f.quantizeScalar(float64(v)))
			continue
		}
		if shift > 0 {
			// Round-to-nearest-even on the mantissa field; a carry
			// naturally increments the exponent field.
			lsb := (mag >> shift) & 1
			mag += half - 1 + lsb
			mag &^= low
		}
		if mag >= maxBits {
			mag = maxBits
		}
		data[i] = math.Float32frombits(sign | mag)
	}
}

// Quantize implements Format (method 1).
func (f *FP) Quantize(t *tensor.Tensor) *Encoding {
	countQuantize(t.Len())
	data := t.Data()
	codes := make([]Bits, len(data))
	meta := Metadata{Kind: MetaNone}
	for i, v := range data {
		codes[i] = f.ToBits(float64(v), meta)
	}
	return &Encoding{Codes: codes, Shape: t.Shape(), Meta: meta}
}

// Dequantize implements Format (method 2).
func (f *FP) Dequantize(enc *Encoding) *tensor.Tensor {
	countDequantize(len(enc.Codes))
	out := tensor.New(enc.Shape...)
	data := out.Data()
	for i, c := range enc.Codes {
		data[i] = float32(f.FromBits(c, enc.Meta))
	}
	return out
}

// ToBits implements Format (method 3). Layout: [sign | exponent | mantissa]
// with the mantissa in the low bits.
func (f *FP) ToBits(v float64, _ Metadata) Bits {
	q := f.quantizeScalar(v)
	var sign Bits
	if math.Signbit(q) {
		sign = 1 << uint(f.expBits+f.mantBits)
	}
	if q == 0 {
		return sign
	}
	if math.IsNaN(q) {
		expAll := Bits((1<<uint(f.expBits) - 1)) << uint(f.mantBits)
		return sign | expAll | 1<<(uint(f.mantBits)-1)
	}
	a := math.Abs(q)
	exp := floorLog2(a)
	if exp < f.expMin {
		// Denormal: exponent field 0, mantissa is the scaled magnitude.
		mant := Bits(math.Round(a / f.denStep))
		return sign | mant
	}
	e := Bits(exp + f.bias)
	mant := Bits(math.Round((math.Ldexp(a, -exp) - 1) * math.Ldexp(1, f.mantBits)))
	if mant >= 1<<uint(f.mantBits) {
		// Rounding carried into the next binade during quantizeScalar; it
		// already normalized, so this cannot occur, but guard defensively.
		mant = 0
		e++
	}
	return sign | e<<uint(f.mantBits) | mant
}

// FromBits implements Format (method 4). Exponent code 0 decodes as a
// denormal when enabled, otherwise flushes to zero; the top exponent code
// decodes to ±Inf (mantissa 0) or NaN, matching IEEE-754 semantics so that
// injected exponent flips produce realistic corruptions.
func (f *FP) FromBits(b Bits, _ Metadata) float64 {
	mantMask := Bits(1)<<uint(f.mantBits) - 1
	mant := b & mantMask
	e := (b >> uint(f.mantBits)) & (1<<uint(f.expBits) - 1)
	sign := 1.0
	if b>>(uint(f.expBits+f.mantBits))&1 == 1 {
		sign = -1
	}
	switch {
	case e == 0:
		if !f.denormals || mant == 0 {
			return sign * 0
		}
		return sign * float64(mant) * f.denStep
	case e == 1<<uint(f.expBits)-1:
		if mant == 0 {
			return sign * math.Inf(1)
		}
		return math.NaN()
	default:
		frac := 1 + float64(float64(mant)*math.Ldexp(1, -f.mantBits))
		return sign * frac * math.Ldexp(1, int(e)-f.bias)
	}
}
