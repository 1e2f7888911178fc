package numfmt

import (
	"fmt"
	"math"

	"goldeneye/internal/tensor"
)

// LNS is a logarithmic number system: a value is stored as a sign bit plus
// its base-2 logarithm in signed fixed point with i integer and f fraction
// bits. Multiplication becomes addition in hardware, which has made LNS a
// recurring candidate for low-power DNN accelerators — another emerging
// format the open Format interface absorbs.
//
// The most negative log code is reserved as the zero encoding (an exact
// zero has no finite logarithm). Bit flips in the log field produce
// multiplicative errors — flipping the log's MSB squares or un-squares a
// value's magnitude — a qualitatively different corruption profile from
// linear formats.
type LNS struct {
	name     string
	intBits  int
	fracBits int

	step    float64 // log-domain quantum: 2^-f
	maxCode int64   // 2^(i+f-1) - 1
	minCode int64   // -2^(i+f-1) + 1 (one below is the zero sentinel)

	seg *lazySegTable // the geometry's shared fused-kernel table; nil above 16 bits
}

var _ Format = (*LNS)(nil)

// NewLNS returns a logarithmic format with i integer and f fractional bits
// of log-magnitude (total width 1 sign + i + f). Geometries up to 16 bits
// wide emulate through a segment table (segtable.go) shared by every
// instance; wider ones have too many outputs for one and round each
// element through the scalar path.
func NewLNS(i, f int) *LNS {
	if i < 2 || f < 0 || i+f < 2 || i+f > 30 {
		panic(fmt.Sprintf("numfmt: unsupported LNS geometry (%d,%d)", i, f))
	}
	magBits := uint(i + f)
	l := &LNS{
		name:     fmt.Sprintf("lns_%d_%d", i, f),
		intBits:  i,
		fracBits: f,
		step:     math.Ldexp(1, -f),
		maxCode:  int64(1)<<(magBits-1) - 1,
		minCode:  -(int64(1) << (magBits - 1)) + 1,
	}
	if 1+i+f <= 16 {
		l.seg = sharedSegTable(l.name)
	}
	return l
}

// LNS8 returns an 8-bit LNS (sign + 5 integer + 2 fraction log bits).
func LNS8() *LNS { return NewLNS(5, 2) }

// LNS16 returns a 16-bit LNS (sign + 7 integer + 8 fraction log bits).
func LNS16() *LNS { return NewLNS(7, 8) }

// Name implements Format.
func (l *LNS) Name() string { return l.name }

// BitWidth implements Format.
func (l *LNS) BitWidth() int { return 1 + l.intBits + l.fracBits }

// MetaBits implements Format; LNS carries no metadata.
func (l *LNS) MetaBits(int) int { return 0 }

// Range implements Format: magnitudes span 2^±maxLog.
func (l *LNS) Range() Range {
	maxLog := float64(l.maxCode) * l.step
	minLog := float64(l.minCode) * l.step
	return Range{
		AbsMax: math.Exp2(maxLog),
		MinPos: math.Exp2(minLog),
	}
}

// zeroCode is the reserved sentinel for exact zero: the most negative
// two's-complement pattern of the log field.
func (l *LNS) zeroCode() int64 { return l.minCode - 1 }

func (l *LNS) quantizeLog(v float64) int64 {
	a := math.Abs(v)
	if a == 0 || math.IsNaN(v) {
		return l.zeroCode()
	}
	c := roundEven(math.Log2(a) / l.step)
	if c > float64(l.maxCode) {
		return l.maxCode
	}
	if c < float64(l.minCode) {
		// Underflow rounds to the smallest representable magnitude or to
		// zero, whichever is nearer in the log domain's boundary sense:
		// below half way to nothing there is no "half way", so LNS flushes.
		return l.zeroCode()
	}
	return int64(c)
}

func (l *LNS) valueOf(sign bool, logCode int64) float64 {
	if logCode == l.zeroCode() {
		return 0
	}
	v := math.Exp2(float64(logCode) * l.step)
	if sign {
		return -v
	}
	return v
}

// roundScalar is the scalar rounding the segment table is compiled from.
func (l *LNS) roundScalar(v float32) float32 {
	return float32(l.valueOf(math.Signbit(float64(v)), l.quantizeLog(float64(v))))
}

// Emulate implements Format with the fused segment-table kernel.
func (l *LNS) Emulate(t *tensor.Tensor) *tensor.Tensor {
	countEmulateFused(t.Len())
	out := t.Clone()
	l.emulateChunk(out.Data())
	return out
}

// emulateRowsInPlace implements rowEmulator. LNS rounding is
// element-local, so the row geometry is irrelevant.
func (l *LNS) emulateRowsInPlace(data []float32, _, _ int) {
	l.emulateChunk(data)
}

// emulateChunk rounds a contiguous chunk of float32 storage in place: the
// kernel behind Emulate, the batched and epilogue paths, and accumulator
// rounding.
func (l *LNS) emulateChunk(data []float32) {
	if l.seg == nil {
		for i, v := range data {
			data[i] = l.roundScalar(v)
		}
		return
	}
	l.seg.get(l.roundScalar).round(data)
}

// Quantize implements Format (method 1).
func (l *LNS) Quantize(t *tensor.Tensor) *Encoding {
	countQuantize(t.Len())
	meta := Metadata{Kind: MetaNone}
	data := t.Data()
	codes := make([]Bits, len(data))
	for i, v := range data {
		codes[i] = l.ToBits(float64(v), meta)
	}
	return &Encoding{Codes: codes, Shape: t.Shape(), Meta: meta}
}

// Dequantize implements Format (method 2).
func (l *LNS) Dequantize(enc *Encoding) *tensor.Tensor {
	countDequantize(len(enc.Codes))
	out := tensor.New(enc.Shape...)
	data := out.Data()
	for i, c := range enc.Codes {
		data[i] = float32(l.FromBits(c, enc.Meta))
	}
	return out
}

// ToBits implements Format (method 3): [sign | two's-complement log].
func (l *LNS) ToBits(v float64, _ Metadata) Bits {
	magBits := uint(l.intBits + l.fracBits)
	code := l.quantizeLog(v)
	b := Bits(uint64(code) & (1<<magBits - 1))
	if math.Signbit(v) && code != l.zeroCode() {
		b |= 1 << magBits
	}
	return b
}

// FromBits implements Format (method 4).
func (l *LNS) FromBits(b Bits, _ Metadata) float64 {
	magBits := uint(l.intBits + l.fracBits)
	raw := uint64(b) & (1<<magBits - 1)
	if raw&(1<<(magBits-1)) != 0 {
		raw |= ^uint64(0) << magBits
	}
	sign := b>>magBits&1 == 1
	return l.valueOf(sign, int64(raw))
}
