package numfmt

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"goldeneye/internal/tensor"
)

// LUT is codebook (lookup-table) quantization in the style of NF4: a k-bit
// code indexes a fixed table of normalized levels, scaled by a per-tensor
// scaling factor derived from the tensor's maximum magnitude. The levels
// are the quantiles of a standard normal distribution, which matches the
// empirical distribution of trained DNN weights far better than a uniform
// grid at very low bit widths.
//
// The scale is hardware metadata (a float32 register, like INT's), so LUT
// supports metadata fault injection; a data-value flip jumps between
// codebook levels, which are non-uniformly spaced — another distinct
// corruption profile for resiliency studies.
type LUT struct {
	name   string
	bits   int
	levels []float64 // sorted normalized levels in [-1, 1]

	// cuts[i] is the order key (orderKey) of the largest x nearestLevel
	// rounds to level i or below; the last entry, above every key, pads
	// cuts to len(levels).
	cuts []uint64
}

var _ Format = (*LUT)(nil)

// NewLUT returns a k-bit normal-quantile codebook format (2 ≤ k ≤ 8).
func NewLUT(bits int) *LUT {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("numfmt: unsupported LUT width %d", bits))
	}
	n := 1 << uint(bits)
	// Levels at the normal quantiles Φ⁻¹((i+0.5)/n), normalized so the
	// outermost level is ±1 (NF4's construction, with an exact zero level
	// substituted at the center pair's midpoint).
	levels := make([]float64, n)
	for i := 0; i < n; i++ {
		levels[i] = normQuantile((float64(i) + 0.5) / float64(n))
	}
	norm := math.Max(math.Abs(levels[0]), math.Abs(levels[n-1]))
	for i := range levels {
		levels[i] /= norm
	}
	// Force an exact zero so zero tensors round-trip exactly.
	zi := 0
	for i, v := range levels {
		if math.Abs(v) < math.Abs(levels[zi]) {
			zi = i
		}
	}
	levels[zi] = 0
	sort.Float64s(levels)
	// Between levels a < b nearestLevel picks a while x-a <= b-x. Both
	// sides are monotone in x, so the comparison holds up to one largest x
	// and fails beyond it: bisect the order keys for it.
	cuts := make([]uint64, n)
	for i := 0; i < n-1; i++ {
		a, b := levels[i], levels[i+1]
		lo, hi := orderKey(a), orderKey(b) // the comparison holds at lo, fails at hi
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if x := fromOrderKey(mid); x-a <= b-x {
				lo = mid
			} else {
				hi = mid
			}
		}
		cuts[i] = lo
	}
	cuts[n-1] = math.MaxUint64
	return &LUT{
		name:   fmt.Sprintf("nf%d", bits),
		bits:   bits,
		levels: levels,
		cuts:   cuts,
	}
}

// orderKey maps float64 values onto uint64 keys in the same order (-0 just
// below +0), so comparisons of keys are integer comparisons.
func orderKey(x float64) uint64 {
	u := math.Float64bits(x)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// fromOrderKey is the inverse of orderKey.
func fromOrderKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// NF4 returns the 4-bit normal-float codebook.
func NF4() *LUT { return NewLUT(4) }

// Name implements Format.
func (l *LUT) Name() string { return l.name }

// BitWidth implements Format.
func (l *LUT) BitWidth() int { return l.bits }

// MetaBits implements Format: one float32 scale register per tensor.
func (l *LUT) MetaBits(int) int { return 32 }

// Levels returns a copy of the normalized codebook.
func (l *LUT) Levels() []float64 { return append([]float64(nil), l.levels...) }

// Range implements Format: the scale register is normalized to the tensor
// max, so the static range is the codebook's own span over its smallest
// nonzero level.
func (l *LUT) Range() Range {
	minPos := math.Inf(1)
	for _, v := range l.levels {
		if v > 0 && v < minPos {
			minPos = v
		}
	}
	return Range{AbsMax: 1, MinPos: minPos}
}

// lutScale derives a sample's scale register from its largest *finite*
// magnitude, so Inf/NaN elements (possible mid-campaign) cannot poison the
// register.
func lutScale(data []float32) float32 {
	maxAbs := 0.0
	for _, v := range data {
		a := math.Abs(float64(v))
		if a > maxAbs && !math.IsInf(a, 0) {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 1
	}
	return float32(maxAbs)
}

// zeroIndex returns the codebook index of the exact-zero level.
func (l *LUT) zeroIndex() int {
	return sort.SearchFloat64s(l.levels, 0)
}

// nearestLevel returns the codebook index closest to x (ties to the lower
// index, which is the even-code side of the sorted table).
func (l *LUT) nearestLevel(x float64) int {
	i := sort.SearchFloat64s(l.levels, x)
	if i == 0 {
		return 0
	}
	if i == len(l.levels) {
		return len(l.levels) - 1
	}
	if x-l.levels[i-1] <= l.levels[i]-x {
		return i - 1
	}
	return i
}

// levelIndex is nearestLevel for a non-NaN x, given the LUT's cuts: the
// number of cuts below x, each cut being where nearestLevel's own
// comparison x-lo <= hi-x turns between two neighbouring levels. A
// fixed-depth bisection over the cuts' integer keys counts them without a
// branch on the data (the borrow of a subtraction is the comparison).
func levelIndex(cuts []uint64, x float64) int {
	k := orderKey(x)
	i := uint(0)
	for step := uint(len(cuts)) / 2; step > 0; step /= 2 {
		_, below := bits.Sub64(cuts[i+step-1], k, 0)
		i += step & -uint(below)
	}
	return int(i)
}

// Emulate implements Format with the fused per-sample kernel.
func (l *LUT) Emulate(t *tensor.Tensor) *tensor.Tensor {
	countEmulateFused(t.Len())
	out := t.Clone()
	l.emulateRowsInPlace(out.Data(), 1, t.Len())
	return out
}

// emulateRowsInPlace implements rowEmulator: the fused per-row LUT kernel.
// Each row derives its own scale register as Quantize does, so the result
// is bit-identical to quantizing each row as its own tensor (the
// EmulateBatched per-sample contract, one row per sample).
func (l *LUT) emulateRowsInPlace(data []float32, rows, rowLen int) {
	cuts, levels := l.cuts, l.levels
	for r := 0; r < rows; r++ {
		row := data[r*rowLen : (r+1)*rowLen]
		scale := float64(lutScale(row))
		for i, v := range row {
			x := float64(v) / scale
			if x != x { // NaN
				row[i] = 0
				continue
			}
			row[i] = float32(levels[levelIndex(cuts, x)] * scale)
		}
	}
}

// Quantize implements Format (method 1).
func (l *LUT) Quantize(t *tensor.Tensor) *Encoding {
	countQuantize(t.Len())
	meta := Metadata{Kind: MetaScale, Scale: lutScale(t.Data())}
	data := t.Data()
	codes := make([]Bits, len(data))
	for i, v := range data {
		codes[i] = l.ToBits(float64(v), meta)
	}
	return &Encoding{Codes: codes, Shape: t.Shape(), Meta: meta}
}

// Dequantize implements Format (method 2).
func (l *LUT) Dequantize(enc *Encoding) *tensor.Tensor {
	countDequantize(len(enc.Codes))
	out := tensor.New(enc.Shape...)
	data := out.Data()
	for i, c := range enc.Codes {
		data[i] = float32(l.FromBits(c, enc.Meta))
	}
	return out
}

// ToBits implements Format (method 3): the codebook index.
func (l *LUT) ToBits(v float64, meta Metadata) Bits {
	if math.IsNaN(v) {
		return Bits(l.zeroIndex())
	}
	scale := float64(meta.Scale)
	if scale == 0 {
		scale = 1
	}
	return Bits(l.nearestLevel(v / scale))
}

// FromBits implements Format (method 4).
func (l *LUT) FromBits(b Bits, meta Metadata) float64 {
	idx := int(uint64(b) & (1<<uint(l.bits) - 1))
	return l.levels[idx] * float64(meta.Scale)
}

// normQuantile is the inverse standard normal CDF (Acklam's rational
// approximation; |error| < 1.15e-9, ample for codebook construction).
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("numfmt: quantile out of (0,1)")
	}
	a := [6]float64{-39.69683028665376, 220.9460984245205, -275.9285104469687, 138.3577518672690, -30.66479806614716, 2.506628277459239}
	b := [5]float64{-54.47609879822406, 161.5858368580409, -155.6989798598866, 66.80131188771972, -13.28068155288572}
	c := [6]float64{-0.007784894002430293, -0.3223964580411365, -2.400758277161838, -2.549732539343734, 4.374664141464968, 2.938163982698783}
	d := [4]float64{0.007784695709041462, 0.3224671290700398, 2.445134137142996, 3.754408661907416}
	const pLow = 0.02425
	// Horner steps round each product on its own: the conversion forbids
	// fusing it with the add into one FMA, which arm64, ppc64le, s390x and
	// riscv64 would otherwise do, so they compute amd64's bits.
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		num := float64(c[0]*q) + c[1]
		num = float64(num*q) + c[2]
		num = float64(num*q) + c[3]
		num = float64(num*q) + c[4]
		num = float64(num*q) + c[5]
		den := float64(d[0]*q) + d[1]
		den = float64(den*q) + d[2]
		den = float64(den*q) + d[3]
		den = float64(den*q) + 1
		return num / den
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		num := float64(a[0]*r) + a[1]
		num = float64(num*r) + a[2]
		num = float64(num*r) + a[3]
		num = float64(num*r) + a[4]
		num = (float64(num*r) + a[5]) * q
		den := float64(b[0]*r) + b[1]
		den = float64(den*r) + b[2]
		den = float64(den*r) + b[3]
		den = float64(den*r) + b[4]
		den = float64(den*r) + 1
		return num / den
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		num := float64(c[0]*q) + c[1]
		num = float64(num*q) + c[2]
		num = float64(num*q) + c[3]
		num = float64(num*q) + c[4]
		num = -(float64(num*q) + c[5])
		den := float64(d[0]*q) + d[1]
		den = float64(den*q) + d[2]
		den = float64(den*q) + d[3]
		den = float64(den*q) + 1
		return num / den
	}
}
