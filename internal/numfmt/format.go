// Package numfmt implements GoldenEye's number-format framework: the paper's
// primary contribution (§III). It provides a unified API for emulating
// arbitrary numerical data formats on top of a float32 compute substrate,
// together with the hardware-implementation metadata (scaling factors, shared
// exponents, adaptive exponent biases) that the paper elevates into software
// for hardware-aware fault injection.
//
// The Format interface mirrors the four pure-virtual methods of §III-B:
//
//	Quantize    ↔ tensor real_to_format_tensor(tensor)   (method 1)
//	Dequantize  ↔ tensor format_to_real_tensor(tensor)   (method 2)
//	ToBits      ↔ bitstring real_to_format(value)        (method 3)
//	FromBits    ↔ value format_to_real(bitstring)        (method 4)
//
// Methods 1 and 2 operate on whole tensors and are the fast path used during
// inference emulation. Methods 3 and 4 are scalar and slower, but give the
// fine-grained control needed for bit-level error injection: the abstract
// injection routine is ToBits → flip → FromBits, exactly as described in the
// paper.
package numfmt

import (
	"fmt"
	"math"

	"goldeneye/internal/tensor"
)

// Bits is a value's bit pattern in some format, with the least-significant
// bit at position 0 and the width given by the owning Format. Patterns wider
// than 64 bits are not needed by any format in this repository.
type Bits uint64

// Flip returns b with bit position i inverted.
func (b Bits) Flip(i int) Bits { return b ^ (1 << uint(i)) }

// Bit returns bit i of b.
func (b Bits) Bit(i int) int { return int(b>>uint(i)) & 1 }

// MetaKind identifies what hardware metadata a format carries.
type MetaKind int

// Metadata kinds. Formats without hardware metadata use MetaNone.
const (
	MetaNone      MetaKind = iota + 1 // plain formats: FP, FxP
	MetaScale                         // INT: per-tensor scaling-factor register
	MetaSharedExp                     // BFP: per-block shared-exponent register
	MetaExpBias                       // AFP: per-tensor exponent-bias register
)

// String returns the kind's short name.
func (k MetaKind) String() string {
	switch k {
	case MetaNone:
		return "none"
	case MetaScale:
		return "scale"
	case MetaSharedExp:
		return "shared-exponent"
	case MetaExpBias:
		return "exponent-bias"
	default:
		return fmt.Sprintf("MetaKind(%d)", int(k))
	}
}

// Metadata is the hardware-implementation state of an encoded tensor that is
// stored outside the per-element data path: in real accelerators this lives
// in dedicated registers or sideband storage. The fault injector can flip
// bits here directly (§III-B "metadata support ... can directly be
// manipulated during an error injection").
type Metadata struct {
	Kind MetaKind

	// Scale is the INT quantization scaling factor, conceptually a float32
	// register; bit flips apply to its IEEE-754 representation.
	Scale float32

	// SharedExp holds one biased shared-exponent code per block for BFP.
	// Each entry occupies the format's exponent width.
	SharedExp []uint8

	// BlockSize is the number of elements per shared exponent (BFP).
	BlockSize int

	// ExpBias is the AdaptivFloat per-tensor exponent bias, conceptually an
	// int8 register; bit flips apply to its two's-complement representation.
	ExpBias int8
}

// Clone returns a deep copy of the metadata, so injections never corrupt a
// caller's golden copy.
func (m Metadata) Clone() Metadata {
	c := m
	c.SharedExp = append([]uint8(nil), m.SharedExp...)
	return c
}

// Encoding is a tensor in format space: the per-element bit patterns plus
// any metadata. It is the hardware-faithful representation that the fault
// injector mutates.
type Encoding struct {
	Codes []Bits
	Shape []int
	Meta  Metadata

	// RowMeta, when non-nil, scopes the metadata per sample (see
	// QuantizeBatched): RowMeta[s] holds the registers of sample s, whose
	// codes occupy the s-th of len(RowMeta) equal contiguous spans of
	// Codes, and Meta is unused. Nil means Meta covers every element.
	RowMeta []Metadata
}

// Clone returns a deep copy of the encoding.
func (e *Encoding) Clone() *Encoding {
	c := &Encoding{
		Codes: append([]Bits(nil), e.Codes...),
		Shape: append([]int(nil), e.Shape...),
		Meta:  e.Meta.Clone(),
	}
	if e.RowMeta != nil {
		c.RowMeta = make([]Metadata, len(e.RowMeta))
		for i, m := range e.RowMeta {
			c.RowMeta[i] = m.Clone()
		}
	}
	return c
}

// Range describes a format's representable dynamic range (Table I).
type Range struct {
	AbsMax float64 // largest representable magnitude
	MinPos float64 // smallest positive nonzero magnitude
}

// DB returns the dynamic range in decibels, 20·log10(max/min), as reported
// in Table I of the paper.
func (r Range) DB() float64 {
	return 20 * math.Log10(r.AbsMax/r.MinPos)
}

// Format is a numerical data format. Implementations must be stateless and
// safe for concurrent use: all per-tensor state (metadata) travels in the
// Encoding.
type Format interface {
	// Name returns a short identifier, e.g. "fp_e4m3" or "bfp_e5m5_b0".
	Name() string

	// BitWidth returns the per-element storage width in bits, excluding
	// amortized metadata (a BFP shared exponent is counted in MetaBits).
	BitWidth() int

	// MetaBits returns the total metadata register width for a tensor of n
	// elements (0 for formats without metadata).
	MetaBits(n int) int

	// Quantize converts a real-valued tensor into format space (method 1).
	Quantize(t *tensor.Tensor) *Encoding

	// Dequantize reconstructs real values from format space (method 2).
	Dequantize(enc *Encoding) *tensor.Tensor

	// ToBits converts one real value into its bit pattern under the given
	// metadata (method 3). Formats with MetaNone ignore meta.
	ToBits(v float64, meta Metadata) Bits

	// FromBits converts a bit pattern back to a real value (method 4).
	FromBits(b Bits, meta Metadata) float64

	// Emulate quantizes and dequantizes t in one step: the value each
	// element would take after a round trip through the format. This is
	// the inference-emulation hot path: every built-in family, the five
	// paper families and posit, LNS and the LUT, runs a fused single-pass
	// kernel here (see kernels.go), bit-identical to the generic
	// Dequantize∘Quantize composition that defines the semantics. Generic
	// wraps any format onto that composition — for differential testing
	// and for measuring the paper's Fig 3 dichotomy between accelerated
	// and code-based backends.
	Emulate(t *tensor.Tensor) *tensor.Tensor

	// Range reports the representable dynamic range (Table I).
	Range() Range
}

// emulateViaCodes is the generic (slow) Emulate implementation: a full
// quantize→dequantize round trip through code space. Generic formats run
// it, and it is the reference the fused kernels are differentially tested
// against.
func emulateViaCodes(f Format, t *tensor.Tensor) *tensor.Tensor {
	countEmulateGeneric(t.Len())
	return f.Dequantize(f.Quantize(t))
}

// roundEven rounds to the nearest integer with ties to even, the rounding
// mode used by every format in this package (matching IEEE-754 RNE).
func roundEven(v float64) float64 { return math.RoundToEven(v) }

// roundEvenMagic is the branch-free RNE used in tensor fast paths: adding
// and subtracting 1.5·2^52 forces the hardware's round-to-nearest-even at
// integer granularity. Valid for |v| < 2^51; callers guard the range.
// Exactness against roundEven is covered by property tests. The
// conversion rounds v on its own before the add: a caller's inlined
// v = x*scale would otherwise fuse with it into one FMA on architectures
// that have one, rounding the exact product and changing the result.
func roundEvenMagic(v float64) float64 {
	const magic = 3 * (1 << 51)
	return float64(v) + magic - magic
}

// magicSafe is the magnitude below which roundEvenMagic is exact.
const magicSafe = 1 << 51

// clampInt limits v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// floorLog2 returns floor(log2(|v|)) for v != 0 using exact exponent
// extraction, avoiding log() rounding pitfalls at powers of two.
func floorLog2(v float64) int {
	frac, exp := math.Frexp(math.Abs(v)) // |v| = frac × 2^exp, frac ∈ [0.5, 1)
	_ = frac
	return exp - 1
}
