package numfmt

import (
	"fmt"
	"math"

	"goldeneye/internal/tensor"
)

// BFP is Block Floating Point: values in a block share a single exponent
// register, and each value stores only a sign and an m-bit magnitude
// (mantissa) relative to that exponent. The shared exponent is hardware
// metadata; a single bit flip there corrupts every value in the block — the
// multi-bit-flip equivalence the paper highlights (§II-B).
//
// Unlike the QPyTorch implementation the paper critiques (§VI), both the
// exponent width and the block size are configurable here; block size 0
// shares one exponent across the entire tensor.
type BFP struct {
	name      string
	expBits   int
	mantBits  int
	blockSize int

	bias    int
	maxMag  int64 // 2^m - 1
	expCode int   // 2^e - 1, largest biased exponent code
}

var _ Format = (*BFP)(nil)

// NewBFP returns a block floating-point format with e shared-exponent bits,
// m per-value mantissa bits, and the given block size (0 = whole tensor).
func NewBFP(e, m, blockSize int) *BFP {
	if e < 2 || e > 10 || m < 1 || m > 30 || blockSize < 0 {
		panic(fmt.Sprintf("numfmt: unsupported BFP geometry e%dm%d block %d", e, m, blockSize))
	}
	return &BFP{
		name:      fmt.Sprintf("bfp_e%dm%d_b%d", e, m, blockSize),
		expBits:   e,
		mantBits:  m,
		blockSize: blockSize,
		bias:      (1 << uint(e-1)) - 1,
		maxMag:    int64(1)<<uint(m) - 1,
		expCode:   1<<uint(e) - 1,
	}
}

// Name implements Format.
func (f *BFP) Name() string { return f.name }

// BitWidth implements Format: per-value storage is sign + mantissa; the
// shared exponent is amortized metadata (see MetaBits).
func (f *BFP) BitWidth() int { return 1 + f.mantBits }

// MetaBits implements Format: one e-bit exponent register per block.
func (f *BFP) MetaBits(n int) int { return f.expBits * f.numBlocks(n) }

// ExpBits returns the shared-exponent register width.
func (f *BFP) ExpBits() int { return f.expBits }

// BlockSize returns the configured block size (0 = whole tensor).
func (f *BFP) BlockSize() int { return f.blockSize }

// Range implements Format: with the largest shared exponent the block can
// represent magnitudes up to (1-2^-m)·2^(expMax+1); the smallest nonzero
// magnitude is one mantissa LSB at the smallest shared exponent.
func (f *BFP) Range() Range {
	expMax := f.expCode - f.bias
	expMin := -f.bias
	return Range{
		AbsMax: float64(f.maxMag) * math.Ldexp(1, expMax+1-f.mantBits),
		MinPos: math.Ldexp(1, expMin+1-f.mantBits),
	}
}

func (f *BFP) numBlocks(n int) int {
	b := f.blockSize
	if b <= 0 || b > n {
		return 1
	}
	return (n + b - 1) / b
}

func (f *BFP) blockBounds(block, n int) (lo, hi int) {
	b := f.blockSize
	if b <= 0 || b > n {
		return 0, n
	}
	lo = block * b
	hi = lo + b
	if hi > n {
		hi = n
	}
	return lo, hi
}

// sharedExpCode returns the biased shared-exponent code for a block with
// the given maximum magnitude.
func (f *BFP) sharedExpCode(maxAbs float64) uint8 {
	if maxAbs == 0 {
		return 0
	}
	return uint8(clampInt(floorLog2(maxAbs)+f.bias, 0, f.expCode))
}

// stepFor returns the quantization step implied by a biased exponent code.
func (f *BFP) stepFor(code uint8) float64 {
	return math.Ldexp(1, int(code)-f.bias+1-f.mantBits)
}

// Quantize implements Format (method 1): per block, derive the shared
// exponent from the block's maximum magnitude, then encode each value as
// sign + magnitude against that exponent's step.
func (f *BFP) Quantize(t *tensor.Tensor) *Encoding {
	countQuantize(t.Len())
	data := t.Data()
	n := len(data)
	nb := f.numBlocks(n)
	meta := Metadata{
		Kind:      MetaSharedExp,
		SharedExp: make([]uint8, nb),
		BlockSize: f.blockSize,
	}
	codes := make([]Bits, n)
	for blk := 0; blk < nb; blk++ {
		lo, hi := f.blockBounds(blk, n)
		maxAbs := 0.0
		for _, v := range data[lo:hi] {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		ec := f.sharedExpCode(maxAbs)
		meta.SharedExp[blk] = ec
		step := f.stepFor(ec)
		for i := lo; i < hi; i++ {
			codes[i] = f.encodeValue(float64(data[i]), step)
		}
	}
	return &Encoding{Codes: codes, Shape: t.Shape(), Meta: meta}
}

func (f *BFP) encodeValue(v, step float64) Bits {
	var sign Bits
	if math.Signbit(v) {
		sign = 1 << uint(f.mantBits)
	}
	if v == 0 || math.IsNaN(v) {
		return sign
	}
	mag := roundEven(math.Abs(v) / step)
	if mag > float64(f.maxMag) {
		mag = float64(f.maxMag)
	}
	return sign | Bits(mag)
}

// Dequantize implements Format (method 2). It honors whatever shared
// exponents the metadata carries — including fault-corrupted ones.
func (f *BFP) Dequantize(enc *Encoding) *tensor.Tensor {
	countDequantize(len(enc.Codes))
	out := tensor.New(enc.Shape...)
	data := out.Data()
	n := len(data)
	for blk, ec := range enc.Meta.SharedExp {
		lo, hi := f.blockBounds(blk, n)
		step := f.stepFor(ec)
		for i := lo; i < hi; i++ {
			data[i] = float32(f.decodeValue(enc.Codes[i], step))
		}
	}
	return out
}

func (f *BFP) decodeValue(b Bits, step float64) float64 {
	mag := float64(uint64(b) & uint64(f.maxMag))
	v := mag * step
	if b>>uint(f.mantBits)&1 == 1 {
		v = -v
	}
	return v
}

// Emulate implements Format with the single-pass block kernel below, pinned
// bit-identical to the generic quantize→dequantize code path (Generic) by
// the property and fuzz suites.
func (f *BFP) Emulate(t *tensor.Tensor) *tensor.Tensor {
	countEmulateFused(t.Len())
	out := t.Clone()
	f.emulateRowsInPlace(out.Data(), 1, t.Len())
	return out
}

// emulateRowsInPlace implements rowEmulator: the fused single-pass BFP
// kernel. Each row is treated as its own tensor — blocks never straddle a
// row boundary — so the result is bit-identical to quantizing and
// dequantizing each row separately (the EmulateBatched per-sample contract;
// rows=1 gives whole-tensor semantics).
//
// Per block: one max-magnitude scan derives the shared exponent's step,
// then each value is clamped, rounded to the mantissa grid with the
// branch-free magic-constant RNE, and rescaled. Clamp-before-round equals
// encodeValue's round-then-clamp because maxMag is an odd integer (the
// half-way tie at maxMag−0.5 resolves downward under RNE either way), and
// maxMag < 2^51 keeps roundEvenMagic exact. Copysign reproduces
// encodeValue's Signbit handling for −0 and signed NaN.
func (f *BFP) emulateRowsInPlace(data []float32, rows, rowLen int) {
	maxC := float64(f.maxMag)
	for r := 0; r < rows; r++ {
		row := data[r*rowLen : (r+1)*rowLen]
		nb := f.numBlocks(rowLen)
		for blk := 0; blk < nb; blk++ {
			lo, hi := f.blockBounds(blk, rowLen)
			maxAbs := 0.0
			for _, v := range row[lo:hi] {
				if a := math.Abs(float64(v)); a > maxAbs {
					maxAbs = a
				}
			}
			step := f.stepFor(f.sharedExpCode(maxAbs))
			for i := lo; i < hi; i++ {
				a := float64(row[i])
				c := math.Abs(a) / step
				switch {
				case c >= maxC:
					c = maxC
				case c != c: // NaN encodes as sign-only, decodes as ±0
					c = 0
				default:
					c = roundEvenMagic(c)
				}
				row[i] = float32(math.Copysign(c*step, a))
			}
		}
	}
}

// ToBits implements Format (method 3). The scalar path treats the value as
// belonging to the metadata's first block; campaign code that needs a
// specific block flips bits in the Encoding directly.
func (f *BFP) ToBits(v float64, meta Metadata) Bits {
	ec := f.sharedExpCode(math.Abs(v))
	if len(meta.SharedExp) > 0 {
		ec = meta.SharedExp[0]
	}
	return f.encodeValue(v, f.stepFor(ec))
}

// FromBits implements Format (method 4), using the metadata's first block
// exponent (or the bias midpoint when absent).
func (f *BFP) FromBits(b Bits, meta Metadata) float64 {
	ec := uint8(f.bias)
	if len(meta.SharedExp) > 0 {
		ec = meta.SharedExp[0]
	}
	return f.decodeValue(b, f.stepFor(ec))
}
