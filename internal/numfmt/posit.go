package numfmt

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"goldeneye/internal/tensor"
)

// Posit is a type-III unum posit format with n total bits and es exponent
// bits: sign, a unary run-length "regime", es exponent bits, and fraction.
// Posits are one of the emerging number systems the paper's extensible
// Format API is designed to absorb ("new formats can be designed and
// incorporated ... by implementing the four pure virtual functions"); they
// trade tapered precision for enormous dynamic range with no Inf/denormal
// machinery.
//
// Quantization uses an exact value table: every n-bit pattern is decoded
// once (posits are at most 16 bits here), sorted, and lookups round to the
// nearest representable value with ties to the even code, matching the
// posit standard's round-to-nearest semantics. Negative patterns use two's
// complement, so the format carries no metadata. Emulate and accumulator
// rounding run the geometry's segment table (segtable.go), compiled from
// that scalar rounding and shared by every instance.
type Posit struct {
	name string
	n    int
	es   int

	once   sync.Once
	values []float64 // sorted representable values
	codes  []Bits    // codes[i] encodes values[i]
	decode []float64 // decode[c] = value of code c (NaR = NaN)

	seg *lazySegTable // the geometry's shared fused-kernel table
}

var _ Format = (*Posit)(nil)

// NewPosit returns an n-bit posit with es exponent bits (3 ≤ n ≤ 16,
// 0 ≤ es ≤ 3).
func NewPosit(n, es int) *Posit {
	if n < 3 || n > 16 || es < 0 || es > 3 {
		panic(fmt.Sprintf("numfmt: unsupported posit geometry n=%d es=%d", n, es))
	}
	name := fmt.Sprintf("posit%d_es%d", n, es)
	return &Posit{
		name: name,
		n:    n,
		es:   es,
		seg:  sharedSegTable(name),
	}
}

// Posit8 returns the common 8-bit, es=0 posit.
func Posit8() *Posit { return NewPosit(8, 0) }

// Posit16 returns the standard 16-bit, es=1 posit.
func Posit16() *Posit { return NewPosit(16, 1) }

// Name implements Format.
func (p *Posit) Name() string { return p.name }

// BitWidth implements Format.
func (p *Posit) BitWidth() int { return p.n }

// MetaBits implements Format; posits carry no metadata.
func (p *Posit) MetaBits(int) int { return 0 }

// ES returns the exponent field width.
func (p *Posit) ES() int { return p.es }

// Range implements Format: maxpos = 2^((n-2)·2^es), minpos its reciprocal.
func (p *Posit) Range() Range {
	useed := math.Ldexp(1, 1<<uint(p.es)) // 2^(2^es)
	maxpos := math.Pow(useed, float64(p.n-2))
	return Range{AbsMax: maxpos, MinPos: 1 / maxpos}
}

// decodeCode converts one n-bit pattern to its real value (NaN for NaR).
func (p *Posit) decodeCode(code uint64) float64 {
	mask := uint64(1)<<uint(p.n) - 1
	code &= mask
	if code == 0 {
		return 0
	}
	nar := uint64(1) << uint(p.n-1)
	if code == nar {
		return math.NaN() // Not a Real
	}
	sign := 1.0
	if code&nar != 0 {
		sign = -1
		code = (-code) & mask // two's complement
	}
	// Regime: run of identical bits starting below the sign bit.
	pos := p.n - 2
	r0 := (code >> uint(pos)) & 1
	run := 0
	for pos >= 0 && (code>>uint(pos))&1 == r0 {
		run++
		pos--
	}
	pos-- // skip the terminating bit (may step below 0; that's fine)
	k := -run
	if r0 == 1 {
		k = run - 1
	}
	// Exponent: up to es bits, truncated if the regime consumed them; the
	// missing low bits are zero.
	e := 0
	esLeft := p.es
	for esLeft > 0 && pos >= 0 {
		e = e<<1 | int((code>>uint(pos))&1)
		pos--
		esLeft--
	}
	e <<= uint(esLeft)
	// Fraction: whatever bits remain.
	fracBits := pos + 1
	frac := 0.0
	if fracBits > 0 {
		f := code & (1<<uint(fracBits) - 1)
		frac = float64(f) / math.Ldexp(1, fracBits)
	}
	scale := k*(1<<uint(p.es)) + e
	return sign * (1 + frac) * math.Ldexp(1, scale)
}

// table lazily builds the sorted value↔code lookup.
func (p *Posit) table() {
	p.once.Do(func() {
		total := 1 << uint(p.n)
		p.decode = make([]float64, total)
		type vc struct {
			v float64
			c Bits
		}
		all := make([]vc, 0, total-1)
		for c := 0; c < total; c++ {
			v := p.decodeCode(uint64(c))
			p.decode[c] = v
			if !math.IsNaN(v) {
				all = append(all, vc{v: v, c: Bits(c)})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
		p.values = make([]float64, len(all))
		p.codes = make([]Bits, len(all))
		for i, e := range all {
			p.values[i] = e.v
			p.codes[i] = e.c
		}
	})
}

// nearestIndex returns the table index of the posit nearest to v (ties to
// the even code, per the posit standard). Nonzero reals never round to
// zero: posits have no underflow, so sub-minpos magnitudes land on ±minpos.
func (p *Posit) nearestIndex(v float64) int {
	p.table()
	i := sort.SearchFloat64s(p.values, v)
	var idx int
	switch {
	case i == 0:
		idx = 0
	case i == len(p.values):
		idx = len(p.values) - 1
	default:
		lo, hi := p.values[i-1], p.values[i]
		dl, dh := v-lo, hi-v
		switch {
		case dl < dh:
			idx = i - 1
		case dh < dl:
			idx = i
		case p.codes[i-1]&1 == 0:
			idx = i - 1
		default:
			idx = i
		}
	}
	if p.values[idx] == 0 && v != 0 {
		if v > 0 {
			idx++ // +minpos
		} else {
			idx-- // -minpos
		}
	}
	return idx
}

// quantizeScalar returns the nearest representable posit value.
func (p *Posit) quantizeScalar(v float64) float64 {
	if v == 0 {
		return 0
	}
	if math.IsNaN(v) {
		return math.NaN()
	}
	p.table()
	return p.values[p.nearestIndex(v)]
}

// roundScalar is the scalar rounding the segment table is compiled from.
func (p *Posit) roundScalar(v float32) float32 { return float32(p.quantizeScalar(float64(v))) }

// Emulate implements Format with the fused segment-table kernel.
func (p *Posit) Emulate(t *tensor.Tensor) *tensor.Tensor {
	countEmulateFused(t.Len())
	out := t.Clone()
	p.emulateChunk(out.Data())
	return out
}

// emulateRowsInPlace implements rowEmulator. Posit rounding is
// element-local, so the row geometry is irrelevant.
func (p *Posit) emulateRowsInPlace(data []float32, _, _ int) {
	p.emulateChunk(data)
}

// emulateChunk rounds a contiguous chunk of float32 storage in place
// through the geometry's segment table: the kernel behind Emulate, the
// batched and epilogue paths, and accumulator rounding.
func (p *Posit) emulateChunk(data []float32) {
	p.seg.get(p.roundScalar).round(data)
}

// Quantize implements Format (method 1).
func (p *Posit) Quantize(t *tensor.Tensor) *Encoding {
	countQuantize(t.Len())
	meta := Metadata{Kind: MetaNone}
	data := t.Data()
	codes := make([]Bits, len(data))
	for i, v := range data {
		codes[i] = p.ToBits(float64(v), meta)
	}
	return &Encoding{Codes: codes, Shape: t.Shape(), Meta: meta}
}

// Dequantize implements Format (method 2).
func (p *Posit) Dequantize(enc *Encoding) *tensor.Tensor {
	countDequantize(len(enc.Codes))
	out := tensor.New(enc.Shape...)
	data := out.Data()
	for i, c := range enc.Codes {
		data[i] = float32(p.FromBits(c, enc.Meta))
	}
	return out
}

// ToBits implements Format (method 3).
func (p *Posit) ToBits(v float64, _ Metadata) Bits {
	if v == 0 {
		return 0
	}
	if math.IsNaN(v) {
		return Bits(1) << uint(p.n-1) // NaR
	}
	p.table()
	return p.codes[p.nearestIndex(v)]
}

// FromBits implements Format (method 4). The NaR pattern decodes to NaN —
// a bit flip can therefore produce NaR corruptions, posits' only
// exceptional value.
func (p *Posit) FromBits(b Bits, _ Metadata) float64 {
	p.table()
	return p.decode[uint64(b)&(1<<uint(p.n)-1)]
}
