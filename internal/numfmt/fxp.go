package numfmt

import (
	"fmt"
	"math"

	"goldeneye/internal/tensor"
)

// FxP is a signed fixed-point format, written FxP(1, i, f) in the paper's
// notation: one sign bit, i integer bits, and f fractional bits, stored in
// two's complement. The radix sits f bits from the LSB. Quantization rounds
// to nearest-even and saturates at the representable extremes.
type FxP struct {
	name     string
	intBits  int
	fracBits int

	step    float64 // 2^-fracBits
	maxCode int64   // 2^(i+f) - 1
	minCode int64   // -2^(i+f)
}

var _ Format = (*FxP)(nil)

// NewFxP returns a fixed-point format with i integer and f fractional bits
// (total width 1+i+f).
func NewFxP(i, f int) *FxP {
	if i < 0 || f < 0 || i+f < 1 || i+f > 62 {
		panic(fmt.Sprintf("numfmt: unsupported FxP geometry (1,%d,%d)", i, f))
	}
	magBits := uint(i + f)
	return &FxP{
		name:     fmt.Sprintf("fxp_1_%d_%d", i, f),
		intBits:  i,
		fracBits: f,
		step:     math.Ldexp(1, -f),
		maxCode:  int64(1)<<magBits - 1,
		minCode:  -(int64(1) << magBits),
	}
}

// Name implements Format.
func (f *FxP) Name() string { return f.name }

// BitWidth implements Format.
func (f *FxP) BitWidth() int { return 1 + f.intBits + f.fracBits }

// MetaBits implements Format; FxP carries no hardware metadata.
func (f *FxP) MetaBits(int) int { return 0 }

// Radix returns the bit position (from the LSB) separating the integer from
// the fractional field, the paper's "radix" hyperparameter.
func (f *FxP) Radix() int { return f.fracBits }

// Range implements Format. The absolute maximum is the two's-complement
// negative extreme 2^i, matching Table I's FxP(1,15,16) row; the minimum
// positive magnitude is one LSB, 2^-f.
func (f *FxP) Range() Range {
	return Range{AbsMax: math.Ldexp(1, f.intBits), MinPos: f.step}
}

func (f *FxP) quantizeCode(v float64) int64 {
	if math.IsNaN(v) {
		return 0
	}
	c := roundEven(v / f.step)
	if c > float64(f.maxCode) {
		return f.maxCode
	}
	if c < float64(f.minCode) {
		return f.minCode
	}
	return int64(c)
}

// Emulate implements Format with an arithmetic fast path: scale, one
// branch-free RNE, clamp, scale back.
func (f *FxP) Emulate(t *tensor.Tensor) *tensor.Tensor {
	countEmulateFused(t.Len())
	out := t.Clone()
	f.emulateChunk(out.Data())
	return out
}

// emulateRowsInPlace implements rowEmulator. FxP snapping is element-local,
// so the row geometry is irrelevant.
func (f *FxP) emulateRowsInPlace(data []float32, _, _ int) {
	f.emulateChunk(data)
}

// emulateChunk snaps a contiguous chunk of float32 storage to the nearest
// fixed-point grid values in place — the shared kernel behind Emulate, the
// batched row variant, and the matmul epilogue.
func (f *FxP) emulateChunk(data []float32) {
	if f.maxCode >= magicSafe {
		for i, v := range data {
			data[i] = float32(float64(f.quantizeCode(float64(v))) * f.step)
		}
		return
	}
	inv := 1 / f.step
	maxC, minC := float64(f.maxCode), float64(f.minCode)
	for i, v := range data {
		c := float64(v) * inv
		switch {
		case c >= maxC:
			c = maxC
		case c <= minC:
			c = minC
		case c != c: // NaN
			c = 0
		default:
			c = roundEvenMagic(c)
		}
		data[i] = float32(c * f.step)
	}
}

// Quantize implements Format (method 1).
func (f *FxP) Quantize(t *tensor.Tensor) *Encoding {
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
func (f *FxP) Dequantize(enc *Encoding) *tensor.Tensor {
	countDequantize(len(enc.Codes))
	out := tensor.New(enc.Shape...)
	data := out.Data()
	for i, c := range enc.Codes {
		data[i] = float32(f.FromBits(c, enc.Meta))
	}
	return out
}

// ToBits implements Format (method 3): the two's-complement code in
// BitWidth bits.
func (f *FxP) ToBits(v float64, _ Metadata) Bits {
	width := uint(f.BitWidth())
	code := f.quantizeCode(v)
	return Bits(uint64(code) & (1<<width - 1))
}

// FromBits implements Format (method 4): sign-extend the two's-complement
// code and scale by the fractional step.
func (f *FxP) FromBits(b Bits, _ Metadata) float64 {
	width := uint(f.BitWidth())
	raw := uint64(b) & (1<<width - 1)
	// Sign-extend from the format width to 64 bits.
	if raw&(1<<(width-1)) != 0 {
		raw |= ^uint64(0) << width
	}
	return float64(int64(raw)) * f.step
}
