package numfmt

import (
	"fmt"
	"math"

	"goldeneye/internal/tensor"
)

// AFP is AdaptivFloat: a floating-point format whose exponent bias is chosen
// per tensor so that the representable range slides to where the tensor's
// values actually live. The bias is hardware metadata (an int8 register per
// tensor); fault injection can flip its bits, rescaling the whole tensor —
// the AFP analogue of BFP's shared-exponent hazard.
//
// Geometry follows the package's FP type: exponent code 0 is the
// zero/denormal region, the top exponent code is reserved for Inf/NaN, and
// quantization saturates at the (shifted) maximum finite value.
type AFP struct {
	name      string
	expBits   int
	mantBits  int
	denormals bool

	expSpan     int // number of normal exponent values: 2^e - 2
	defaultBias int8
}

var _ Format = (*AFP)(nil)

// NewAFP returns an AdaptivFloat format with e exponent bits and m mantissa
// bits (per-value width 1+e+m) plus a per-tensor bias register.
func NewAFP(e, m int, denormals bool) *AFP {
	if e < 2 || e > 8 || m < 1 || m > 30 {
		panic(fmt.Sprintf("numfmt: unsupported AFP geometry e%dm%d", e, m))
	}
	f := &AFP{
		name:      fmt.Sprintf("afp_e%dm%d", e, m),
		expBits:   e,
		mantBits:  m,
		denormals: denormals,
		expSpan:   1<<uint(e) - 2,
		// The default bias reproduces standard IEEE-style placement, so an
		// AFP tensor that never adapts matches the corresponding FP format
		// (Table I's "movable range" row equals the FP8 row by default).
		defaultBias: int8((1 << uint(e-1)) - 1),
	}
	if !denormals {
		f.name += "_nodn"
	}
	return f
}

// Name implements Format.
func (f *AFP) Name() string { return f.name }

// BitWidth implements Format.
func (f *AFP) BitWidth() int { return 1 + f.expBits + f.mantBits }

// MetaBits implements Format: one int8 bias register per tensor.
func (f *AFP) MetaBits(int) int { return 8 }

// ExpBits returns the exponent field width.
func (f *AFP) ExpBits() int { return f.expBits }

// MantBits returns the mantissa field width.
func (f *AFP) MantBits() int { return f.mantBits }

// Range implements Format, reporting the range at the default bias; the
// whole window shifts with the adaptive bias ("movable range" in Table I).
func (f *AFP) Range() Range {
	bias := int(f.defaultBias)
	expMax := f.expSpan - bias
	expMin := 1 - bias
	minPos := math.Ldexp(1, expMin)
	if f.denormals {
		minPos = math.Ldexp(1, expMin-f.mantBits)
	}
	return Range{
		AbsMax: (2 - math.Ldexp(1, -f.mantBits)) * math.Ldexp(1, expMax),
		MinPos: minPos,
	}
}

// biasFor picks the exponent bias that places the format's largest normal
// binade at the tensor's maximum magnitude.
func (f *AFP) biasFor(maxAbs float64) int8 {
	if maxAbs == 0 {
		return f.defaultBias
	}
	b := f.expSpan - floorLog2(maxAbs)
	return int8(clampInt(b, -128, 127))
}

// geometry returns the normal exponent limits and steps implied by a bias
// register value (possibly fault-corrupted).
func (f *AFP) geometry(bias int8) (expMin, expMax int, maxFinite, denStep float64) {
	expMin = 1 - int(bias)
	expMax = f.expSpan - int(bias)
	maxFinite = (2 - math.Ldexp(1, -f.mantBits)) * math.Ldexp(1, expMax)
	denStep = math.Ldexp(1, expMin-f.mantBits)
	return expMin, expMax, maxFinite, denStep
}

// Quantize implements Format (method 1).
func (f *AFP) Quantize(t *tensor.Tensor) *Encoding {
	countQuantize(t.Len())
	meta := Metadata{Kind: MetaExpBias, ExpBias: f.biasFor(t.AbsMax())}
	data := t.Data()
	codes := make([]Bits, len(data))
	for i, v := range data {
		codes[i] = f.ToBits(float64(v), meta)
	}
	return &Encoding{Codes: codes, Shape: t.Shape(), Meta: meta}
}

// Dequantize implements Format (method 2).
func (f *AFP) Dequantize(enc *Encoding) *tensor.Tensor {
	countDequantize(len(enc.Codes))
	out := tensor.New(enc.Shape...)
	data := out.Data()
	for i, c := range enc.Codes {
		data[i] = float32(f.FromBits(c, enc.Meta))
	}
	return out
}

// Emulate implements Format with the single-pass arithmetic kernel below,
// pinned bit-identical to the generic quantize→dequantize code path
// (Generic) by the property and fuzz suites.
func (f *AFP) Emulate(t *tensor.Tensor) *tensor.Tensor {
	countEmulateFused(t.Len())
	out := t.Clone()
	f.emulateRowsInPlace(out.Data(), 1, t.Len())
	return out
}

// emulateRowsInPlace implements rowEmulator: the fused single-pass AFP
// kernel. Each row derives its own bias register from the row's maximum
// magnitude — exactly what Quantize does per tensor — so the result is
// bit-identical to quantizing each row separately (the EmulateBatched
// per-sample contract; rows=1 gives whole-tensor semantics).
func (f *AFP) emulateRowsInPlace(data []float32, rows, rowLen int) {
	for r := 0; r < rows; r++ {
		row := data[r*rowLen : (r+1)*rowLen]
		maxAbs := 0.0
		for _, v := range row {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		expMin, _, maxFinite, denStep := f.geometry(f.biasFor(maxAbs))
		minNorm := math.Ldexp(1, expMin)
		for i, v := range row {
			row[i] = float32(f.emulateValue(float64(v), expMin, maxFinite, minNorm, denStep))
		}
	}
}

// emulateValue snaps one value under a fixed geometry, replicating
// FromBits∘ToBits exactly: every branch below lands on a value whose
// decode reconstruction is exact in float64 (mantissa extraction and
// frac·2^exp are exact for representable codes), so computing the decoded
// value directly — without materializing the code — changes no bits.
func (f *AFP) emulateValue(v float64, expMin int, maxFinite, minNorm, denStep float64) float64 {
	sign := 1.0
	if math.Signbit(v) {
		sign = -1
	}
	if v == 0 || math.IsNaN(v) {
		return sign * 0
	}
	a := math.Abs(v)
	if a >= maxFinite {
		return sign * maxFinite
	}
	exp := floorLog2(a)
	if exp < expMin {
		if !f.denormals {
			// Nearest representable values are 0 and minNorm; the RNE
			// half-way point resolves to 0 (even), as in ToBits.
			if roundEven(a/minNorm) == 0 {
				return sign * 0
			}
			return sign * minNorm
		}
		mant := roundEven(a / denStep)
		if mant >= math.Ldexp(1, f.mantBits) { // rounded up to minNorm
			return sign * minNorm
		}
		return sign * mant * denStep
	}
	step := math.Ldexp(1, exp-f.mantBits)
	q := roundEven(a/step) * step
	if q > maxFinite {
		return sign * maxFinite
	}
	return sign * q
}

// ToBits implements Format (method 3) under the metadata's bias register.
func (f *AFP) ToBits(v float64, meta Metadata) Bits {
	bias := meta.ExpBias
	if meta.Kind != MetaExpBias {
		bias = f.defaultBias
	}
	expMin, _, maxFinite, denStep := f.geometry(bias)

	var sign Bits
	if math.Signbit(v) {
		sign = 1 << uint(f.expBits+f.mantBits)
	}
	if v == 0 || math.IsNaN(v) {
		return sign
	}
	a := math.Abs(v)
	if a >= maxFinite {
		return sign | f.maxFiniteCode()
	}
	exp := floorLog2(a)
	if exp < expMin {
		if !f.denormals {
			minNorm := math.Ldexp(1, expMin)
			if roundEven(a/minNorm) == 0 {
				return sign
			}
			return sign | 1<<uint(f.mantBits) // exponent code 1, mantissa 0
		}
		mant := Bits(roundEven(a / denStep))
		if mant >= 1<<uint(f.mantBits) {
			return sign | 1<<uint(f.mantBits) // rounded up to minNorm
		}
		return sign | mant
	}
	step := math.Ldexp(1, exp-f.mantBits)
	q := roundEven(a/step) * step
	if q >= math.Ldexp(2, exp) { // rounding carried into the next binade
		exp++
	}
	if q > maxFinite {
		return sign | f.maxFiniteCode()
	}
	e := Bits(exp + int(bias))
	mant := Bits(math.Round((math.Ldexp(q, -exp) - 1) * math.Ldexp(1, f.mantBits)))
	if mant >= 1<<uint(f.mantBits) {
		mant = 0
		e++
	}
	return sign | e<<uint(f.mantBits) | mant
}

func (f *AFP) maxFiniteCode() Bits {
	e := Bits(1<<uint(f.expBits) - 2)
	mant := Bits(1<<uint(f.mantBits) - 1)
	return e<<uint(f.mantBits) | mant
}

// FromBits implements Format (method 4); it honors whatever bias the
// metadata carries, including fault-corrupted values (overflow decodes to
// ±Inf via Ldexp, matching hardware behaviour).
func (f *AFP) FromBits(b Bits, meta Metadata) float64 {
	bias := meta.ExpBias
	if meta.Kind != MetaExpBias {
		bias = f.defaultBias
	}
	_, _, _, denStep := f.geometry(bias)

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
		return sign * float64(mant) * denStep
	case e == 1<<uint(f.expBits)-1:
		if mant == 0 {
			return sign * math.Inf(1)
		}
		return math.NaN()
	default:
		frac := 1 + float64(float64(mant)*math.Ldexp(1, -f.mantBits))
		return sign * frac * math.Ldexp(1, int(e)-int(bias))
	}
}
