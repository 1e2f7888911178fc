package tensor

import (
	"fmt"
	"math"
)

// Rounding rounds a run of float32 values in place, each element on its
// own, so a caller may hand it any contiguous slice. AccumHook.Quant holds
// one: the accumulator GEMM calls Round on each output row after every
// multiply-accumulate step and after the bias add.
type Rounding interface {
	Round(data []float32)
}

// RoundFunc adapts an element-local rounding function to Rounding.
type RoundFunc func(data []float32)

// Round implements Rounding.
func (f RoundFunc) Round(data []float32) { f(data) }

// FPRound is round-to-nearest-even to an IEEE-754-style binary format
// with 2–8 exponent bits and 1–22 mantissa bits, given as data so the
// GEMM kernels can round in registers: every finite value rounds to the
// nearest representable one and saturates at ±maxFinite, ±Inf saturates
// to ±maxFinite, and every NaN becomes float32(math.NaN()). Values below
// the format's minimum normal round to multiples of its denormal step, or
// to 0 and the minimum normal without denormals. numfmt.FP builds one for
// each of its geometries in this range.
//
// Each field holds its constant in all eight lanes of a YMM vector, the
// layout the AVX2 kernels read; the portable loop reads lane 0.
type FPRound struct {
	abs     [8]uint32  // 0x7fffffff: clears the sign bit
	lsb     [8]uint32  // 1: the mantissa field's lowest kept bit, shifted down
	half    [8]uint32  // 1<<(shift-1) - 1: RNE's bias below the tie
	keep    [8]uint32  // ^(1<<shift - 1): the kept mantissa bits
	maxBits [8]uint32  // bits of maxFinite
	minNorm [8]uint32  // bits of the smallest normal
	sign    [8]uint32  // 0x80000000
	nan     [8]uint32  // bits of float32(math.NaN())
	magic   [8]float32 // 2^23·step: |x| + magic - magic rounds |x| to a multiple of step
	zero    [8]uint32  // 0
	shift   [4]uint32  // 23 - mantissa bits, the shift count VPSRLD reads
}

// NewFPRound returns the rounding to the format with e exponent bits, m
// mantissa bits and, when denormals is set, a subnormal region. It panics
// outside 2 ≤ e ≤ 8, 1 ≤ m ≤ 22: there the format's minimum normal and
// denormal step are float32 values and at least one mantissa bit is
// dropped, which the bit arithmetic relies on.
func NewFPRound(e, m int, denormals bool) *FPRound {
	if e < 2 || e > 8 || m < 1 || m > 22 {
		panic(fmt.Sprintf("tensor: no FPRound for e%dm%d", e, m))
	}
	bias := 1<<(e-1) - 1
	expMin, expMax := 1-bias, 1<<e-2-bias
	shift := uint32(23 - m)
	step := math.Ldexp(1, expMin-m)
	if !denormals {
		step = math.Ldexp(1, expMin)
	}
	r := &FPRound{shift: [4]uint32{shift}}
	for i := range 8 {
		r.abs[i] = 0x7fff_ffff
		r.lsb[i] = 1
		r.half[i] = 1<<(shift-1) - 1
		r.keep[i] = ^(1<<shift - 1)
		r.maxBits[i] = uint32(expMax+127)<<23 | (1<<m-1)<<shift
		r.minNorm[i] = uint32(expMin+127) << 23
		r.sign[i] = 0x8000_0000
		r.nan[i] = math.Float32bits(canonicalNaN)
		r.magic[i] = float32(math.Ldexp(step, 23))
	}
	return r
}

// canonicalNaN is the one NaN FPRound writes, float32(math.NaN()).
var canonicalNaN = float32(math.NaN())

// roundGo is the portable FPRound loop, and the reference the AVX2 kernels
// match bit for bit. In the normal range it rounds the mantissa field with
// integer adds, where a carry increments the exponent field, and clamps to
// maxFinite, which also saturates Inf. Below the minimum normal, adding
// magic = 2^23·step to |x| leaves exactly one float32 ulp of step in
// [magic, 2·magic), so the hardware's nearest-even add rounds |x| to a
// multiple of step and subtracting magic again is exact.
func (r *FPRound) roundGo(data []float32) {
	var (
		shift   = r.shift[0]
		half    = r.half[0]
		keep    = r.keep[0]
		maxBits = r.maxBits[0]
		minNorm = r.minNorm[0]
		magic   = r.magic[0]
	)
	for i, v := range data {
		b := math.Float32bits(v)
		mag := b &^ 0x8000_0000
		var q uint32
		switch {
		case mag > 0x7f80_0000:
			data[i] = canonicalNaN
			continue
		case mag < minNorm:
			s := float32(math.Float32frombits(mag) + magic)
			q = math.Float32bits(float32(s - magic))
		default:
			q = min((mag+half+(mag>>shift)&1)&keep, maxBits)
		}
		data[i] = math.Float32frombits(b&0x8000_0000 | q)
	}
}
