package numfmt

import (
	"fmt"
	"math"

	"goldeneye/internal/tensor"
)

// INT is symmetric integer quantization: real values map linearly onto
// signed integer codes in [-(2^(b-1)-1), 2^(b-1)-1] through a per-tensor
// scaling factor. The scaling factor is hardware metadata — in an
// accelerator it lives in a dedicated register — and GoldenEye exposes it
// for metadata fault injection: a bit flip in the scale's IEEE-754
// representation rescales the entire tensor, the INT analogue of the shared-
// exponent hazard the paper describes for BFP (§II-B).
type INT struct {
	name string
	bits int
	qmax int64
}

var _ Format = (*INT)(nil)

// NewINT returns a symmetric integer quantization format with the given
// total width in bits (including sign).
func NewINT(bits int) *INT {
	if bits < 2 || bits > 32 {
		panic(fmt.Sprintf("numfmt: unsupported INT width %d", bits))
	}
	return &INT{
		name: fmt.Sprintf("int%d", bits),
		bits: bits,
		qmax: int64(1)<<uint(bits-1) - 1,
	}
}

// Name implements Format.
func (q *INT) Name() string { return q.name }

// BitWidth implements Format.
func (q *INT) BitWidth() int { return q.bits }

// MetaBits implements Format: one float32 scale register per tensor.
func (q *INT) MetaBits(int) int { return 32 }

// Range implements Format. Following Table I's convention for INT (where
// the minimum is listed as 0), the dynamic range in dB is computed between
// the largest and smallest nonzero code magnitudes, i.e. 20·log10(qmax/1).
func (q *INT) Range() Range {
	return Range{AbsMax: float64(q.qmax), MinPos: 1}
}

// scaleFor computes the per-tensor scaling factor mapping the largest
// magnitude onto the largest code. A zero tensor gets scale 1 so codes stay
// well-defined.
func (q *INT) scaleFor(t *tensor.Tensor) float32 {
	maxAbs := t.AbsMax()
	if maxAbs == 0 {
		return 1
	}
	return float32(maxAbs / float64(q.qmax))
}

func (q *INT) quantizeCode(v, scale float64) int64 {
	if math.IsNaN(v) || scale == 0 {
		return 0
	}
	c := roundEven(v / scale)
	if math.IsNaN(c) { // e.g. Inf value with Inf scale
		return 0
	}
	if c > float64(q.qmax) {
		return q.qmax
	}
	if c < -float64(q.qmax) {
		return -q.qmax
	}
	return int64(c)
}

// Emulate implements Format with an arithmetic fast path: scale, one
// branch-free RNE, clamp, scale back.
func (q *INT) Emulate(t *tensor.Tensor) *tensor.Tensor {
	countEmulateFused(t.Len())
	scale := float64(q.scaleFor(t))
	out := t.Clone()
	data := out.Data()
	if scale == 0 {
		// float32 underflow of the scale register: every code quantizes
		// to 0 (quantizeCode), which decodes to +0.
		clear(data)
		return out
	}
	maxC := float64(q.qmax)
	for i, v := range data {
		// Divide (not multiply-by-reciprocal) so the fast path stays bit-
		// identical to the scalar quantizeCode used by ToBits.
		c := float64(v) / scale
		switch {
		case c >= maxC:
			c = maxC
		case c <= -maxC:
			c = -maxC
		case c != c: // NaN
			c = 0
		default:
			c = roundEvenMagic(c)
		}
		data[i] = float32(c * scale)
	}
	return out
}

// emulateRowsInPlace implements rowEmulator: the fused per-row INT kernel.
// Each row derives its own scale register — float32-truncated exactly as
// scaleFor does — so the result is bit-identical to quantizing each row as
// its own tensor (the EmulateBatched per-sample contract, one row per
// sample).
func (q *INT) emulateRowsInPlace(data []float32, rows, rowLen int) {
	maxC := float64(q.qmax)
	for r := 0; r < rows; r++ {
		row := data[r*rowLen : (r+1)*rowLen]
		maxAbs := 0.0
		for _, v := range row {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		scale := 1.0
		if maxAbs != 0 {
			// The float32 round-trip replicates scaleFor's register
			// truncation; without it the fused path would divide by a more
			// precise scale than the hardware register holds.
			scale = float64(float32(maxAbs / maxC))
		}
		if scale == 0 {
			// float32 underflow of the scale register: every code
			// quantizes to 0 (quantizeCode), which decodes to +0.
			clear(row)
			continue
		}
		for i, v := range row {
			c := float64(v) / scale
			switch {
			case c >= maxC:
				c = maxC
			case c <= -maxC:
				c = -maxC
			case c != c: // NaN
				c = 0
			default:
				c = roundEvenMagic(c)
			}
			row[i] = float32(c * scale)
		}
	}
}

// Quantize implements Format (method 1), recording the scale register in
// the encoding's metadata.
func (q *INT) Quantize(t *tensor.Tensor) *Encoding {
	countQuantize(t.Len())
	meta := Metadata{Kind: MetaScale, Scale: q.scaleFor(t)}
	data := t.Data()
	codes := make([]Bits, len(data))
	for i, v := range data {
		codes[i] = q.ToBits(float64(v), meta)
	}
	return &Encoding{Codes: codes, Shape: t.Shape(), Meta: meta}
}

// Dequantize implements Format (method 2).
func (q *INT) Dequantize(enc *Encoding) *tensor.Tensor {
	countDequantize(len(enc.Codes))
	out := tensor.New(enc.Shape...)
	data := out.Data()
	for i, c := range enc.Codes {
		data[i] = float32(q.FromBits(c, enc.Meta))
	}
	return out
}

// ToBits implements Format (method 3): the two's-complement code under the
// metadata's scale.
func (q *INT) ToBits(v float64, meta Metadata) Bits {
	code := q.quantizeCode(v, float64(meta.Scale))
	return Bits(uint64(code) & (1<<uint(q.bits) - 1))
}

// FromBits implements Format (method 4).
func (q *INT) FromBits(b Bits, meta Metadata) float64 {
	width := uint(q.bits)
	raw := uint64(b) & (1<<width - 1)
	if raw&(1<<(width-1)) != 0 {
		raw |= ^uint64(0) << width
	}
	return float64(int64(raw)) * float64(meta.Scale)
}
