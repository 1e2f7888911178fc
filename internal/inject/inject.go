// Package inject implements GoldenEye's fault-injection engine: single- and
// multi-bit flips in activation values, weight values, and — uniquely, per
// the paper — in the hardware metadata of a number format (INT scaling
// factor, BFP shared exponent, AFP exponent bias). The abstract routine is
// the paper's §III-B pipeline: quantize to format space, flip bits in the
// encoding, dequantize back.
//
// The engine covers the paper's 8 single-bit injection sites: data-value
// flips for all 5 format families plus metadata flips for INT, BFP and AFP.
package inject

import (
	"fmt"
	"math"

	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// Site selects whether a fault lands in per-element data, in the format's
// hardware metadata, or inside a GEMM accumulator register mid-reduction.
type Site int

// Injection sites.
const (
	SiteValue    Site = iota + 1 // a bit of one element's encoding
	SiteMetadata                 // a bit of a metadata register
	SiteAccum                    // a bit of a partial sum inside the layer's GEMM accumulator
)

// String returns the site's short name.
func (s Site) String() string {
	switch s {
	case SiteValue:
		return "value"
	case SiteMetadata:
		return "metadata"
	case SiteAccum:
		return "accum"
	default:
		return fmt.Sprintf("Site(%d)", int(s))
	}
}

// ParseSite maps a site's String spelling ("value", "metadata", "accum")
// back to its value.
func ParseSite(s string) (Site, error) {
	for _, site := range []Site{SiteValue, SiteMetadata, SiteAccum} {
		if s == site.String() {
			return site, nil
		}
	}
	return 0, fmt.Errorf("inject: unknown injection site %q (want value, metadata, or accum)", s)
}

// Target selects what the fault corrupts: a neuron (activation) during the
// forward pass, or a stored weight.
type Target int

// Injection targets.
const (
	TargetNeuron Target = iota + 1
	TargetWeight
)

// String returns the target's short name.
func (t Target) String() string {
	switch t {
	case TargetNeuron:
		return "neuron"
	case TargetWeight:
		return "weight"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// ParseTarget maps a target's String spelling ("neuron", "weight") back to
// its value.
func ParseTarget(s string) (Target, error) {
	for _, t := range []Target{TargetNeuron, TargetWeight} {
		if s == t.String() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("inject: unknown injection target %q (want neuron or weight)", s)
}

// FaultKind selects the error model (paper §IV-C studies "different error
// models"). The zero value is the classic transient single-bit flip, so
// existing Fault literals keep their meaning.
type FaultKind int

// Error models.
const (
	KindFlip     FaultKind = iota // transient bit flip (default)
	KindStuckAt0                  // permanent stuck-at-0 on the bit
	KindStuckAt1                  // permanent stuck-at-1 on the bit
	KindBurst                     // the same bit flips in every element (wordline/row upset)
)

// String returns the kind's short name.
func (k FaultKind) String() string {
	switch k {
	case KindFlip:
		return "flip"
	case KindStuckAt0:
		return "stuck-at-0"
	case KindStuckAt1:
		return "stuck-at-1"
	case KindBurst:
		return "burst"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one fully specified fault.
type Fault struct {
	Layer  int // layer visit index (see nn.Trace)
	Site   Site
	Target Target
	Kind   FaultKind

	// Element is the flat element index for SiteValue faults.
	Element int

	// Bit is the bit position: within the element encoding for SiteValue,
	// or within the selected metadata register for SiteMetadata.
	Bit int

	// MetaIndex selects the metadata register for SiteMetadata faults
	// (the block index for BFP; 0 for INT scale and AFP bias).
	MetaIndex int

	// Row is the sample the fault lands in when injected into a per-sample
	// encoding (numfmt.QuantizeBatched); Element and MetaIndex address that
	// sample's codes and registers. Faults are drawn sample-agnostic (Row 0)
	// and NeuronHook assigns samples at execution time, so the drawn fault
	// sequence is identical to the serial campaign's. Ignored for
	// per-tensor encodings.
	Row int

	// Step is the reduction step a SiteAccum fault lands after: the flip
	// corrupts output element Element's partial sum once multiply-accumulate
	// Step of the layer's GEMM has been accumulated (and the corrupted value
	// participates in every remaining step). Zero for the other sites; the
	// omitempty tag keeps their wire encodings byte-identical to documents
	// written before accumulator injection existed.
	Step int `json:"Step,omitempty"`
}

// String renders a compact human-readable description.
func (f Fault) String() string {
	switch f.Site {
	case SiteMetadata:
		return fmt.Sprintf("layer %d %s %s reg %d bit %d", f.Layer, f.Target, f.Site, f.MetaIndex, f.Bit)
	case SiteAccum:
		return fmt.Sprintf("layer %d %s %s elem %d bit %d step %d", f.Layer, f.Target, f.Site, f.Element, f.Bit, f.Step)
	default:
		return fmt.Sprintf("layer %d %s %s elem %d bit %d", f.Layer, f.Target, f.Site, f.Element, f.Bit)
	}
}

// FlipInEncoding applies the fault to enc in place under its error model.
// It is the lowest-level injection primitive, shared by neuron and weight
// paths. Per-sample encodings (numfmt.QuantizeBatched) are addressed by
// (f.Row, f.Element/f.MetaIndex), confining the fault — burst models
// included — to one sample's codes and registers, since each sample models
// an independent inference; the injected sample is bit-identical to a
// batch-1 injection of the same fault while its batchmates stay clean.
func FlipInEncoding(enc *numfmt.Encoding, f Fault) error {
	if enc.RowMeta == nil {
		return flipIn(enc.Codes, &enc.Meta, f)
	}
	rows := len(enc.RowMeta)
	if rows == 0 || len(enc.Codes)%rows != 0 {
		return fmt.Errorf("inject: malformed batched encoding (%d rows, %d codes)", rows, len(enc.Codes))
	}
	if f.Row < 0 || f.Row >= rows {
		return fmt.Errorf("inject: row %d out of range (%d rows)", f.Row, rows)
	}
	total := len(enc.Codes)
	return flipIn(enc.Codes[f.Row*total/rows:(f.Row+1)*total/rows], &enc.RowMeta[f.Row], f)
}

// flipIn applies the fault to one sample's codes and metadata registers.
func flipIn(codes []numfmt.Bits, meta *numfmt.Metadata, f Fault) error {
	switch f.Site {
	case SiteValue:
		if f.Kind == KindBurst {
			for i := range codes {
				codes[i] = codes[i].Flip(f.Bit)
			}
			return nil
		}
		if f.Element < 0 || f.Element >= len(codes) {
			return fmt.Errorf("inject: element %d out of range (%d elements)", f.Element, len(codes))
		}
		codes[f.Element] = applyBitOp(codes[f.Element], f.Kind, f.Bit)
		return nil
	case SiteMetadata:
		return faultMetadata(meta, f)
	default:
		return fmt.Errorf("inject: unknown site %v", f.Site)
	}
}

// applyBitOp applies the error model to one code's bit.
func applyBitOp(code numfmt.Bits, kind FaultKind, bit int) numfmt.Bits {
	switch kind {
	case KindStuckAt0:
		return code &^ (1 << uint(bit))
	case KindStuckAt1:
		return code | (1 << uint(bit))
	default: // KindFlip (and burst handled by callers)
		return code.Flip(bit)
	}
}

// faultMetadata applies the error model to one bit of a metadata register,
// honoring each format's hardware representation: IEEE-754 float32 for the
// INT/LUT scale, a raw biased-exponent register for BFP, two's-complement
// int8 for the AFP bias. Burst faults hit the bit in every register (one
// register for scale/bias formats, all blocks for BFP).
func faultMetadata(m *numfmt.Metadata, f Fault) error {
	idx, bit := f.MetaIndex, f.Bit
	reg8 := func(v uint8) uint8 {
		switch f.Kind {
		case KindStuckAt0:
			return v &^ (1 << uint(bit))
		case KindStuckAt1:
			return v | 1<<uint(bit)
		default:
			return v ^ 1<<uint(bit)
		}
	}
	switch m.Kind {
	case numfmt.MetaScale:
		if bit < 0 || bit >= 32 {
			return fmt.Errorf("inject: scale bit %d out of range", bit)
		}
		bits := math.Float32bits(m.Scale)
		switch f.Kind {
		case KindStuckAt0:
			bits &^= 1 << uint(bit)
		case KindStuckAt1:
			bits |= 1 << uint(bit)
		default:
			bits ^= 1 << uint(bit)
		}
		m.Scale = math.Float32frombits(bits)
		return nil
	case numfmt.MetaSharedExp:
		if bit < 0 || bit >= 8 {
			return fmt.Errorf("inject: shared-exponent bit %d out of range", bit)
		}
		if f.Kind == KindBurst {
			for i := range m.SharedExp {
				m.SharedExp[i] ^= 1 << uint(bit)
			}
			return nil
		}
		if idx < 0 || idx >= len(m.SharedExp) {
			return fmt.Errorf("inject: shared-exponent register %d out of range (%d blocks)", idx, len(m.SharedExp))
		}
		m.SharedExp[idx] = reg8(m.SharedExp[idx])
		return nil
	case numfmt.MetaExpBias:
		if bit < 0 || bit >= 8 {
			return fmt.Errorf("inject: bias bit %d out of range", bit)
		}
		m.ExpBias = int8(reg8(uint8(m.ExpBias)))
		return nil
	default:
		return fmt.Errorf("inject: format has no metadata (kind %v)", m.Kind)
	}
}

// MetaBitWidth returns the flippable bit width of a format's metadata
// register, or 0 if the format has none.
func MetaBitWidth(f numfmt.Format) int {
	switch v := f.(type) {
	case *numfmt.INT:
		return 32 // float32 scale register
	case *numfmt.LUT:
		return 32 // float32 scale register
	case *numfmt.BFP:
		return v.ExpBits()
	case *numfmt.AFP:
		return 8 // int8 bias register
	default:
		return 0
	}
}

// NeuronHook returns a post-forward hook that injects samples[s]'s faults
// into sample s of the matching layer's output, for a pass over
// len(samples) samples: each sample — its contiguous share of the
// activation — is quantized to format space with its own metadata, its
// flips are applied (data or metadata) to one snapshot, modeling
// simultaneous upsets (the paper's "single- and multi-bit flips"), and the
// corrupted encoding is dequantized — exactly the hardware-aware routine
// of §III-B, bit-identical per sample to a one-sample pass. A sample with
// no faults passes through clean.
func NeuronHook(format numfmt.Format, samples [][]Fault) nn.HookFunc {
	return func(_ nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		enc := numfmt.QuantizeBatched(format, t, len(samples))
		for s, faults := range samples {
			for _, f := range faults {
				f.Row = s
				if err := FlipInEncoding(enc, f); err != nil {
					panic(err) // faults were validated at campaign construction
				}
			}
		}
		return numfmt.DequantizeBatched(format, enc)
	}
}

// RandomNeuronHook returns a post-forward hook that injects a fresh random
// single-bit fault on every invocation — the fault-aware-training mechanism
// the paper sketches in §V-D ("build resilient models via novel training
// routines"). rate is the per-invocation injection probability.
func RandomNeuronHook(format numfmt.Format, r *rng.RNG, site Site, rate float64) nn.HookFunc {
	return func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		if r.Float64() >= rate {
			return t
		}
		fault := RandomFault(r, format, info.Index, t.Len(), site, TargetNeuron)
		enc := format.Quantize(t)
		if err := FlipInEncoding(enc, fault); err != nil {
			return t
		}
		return format.Dequantize(enc)
	}
}

// RandomFault draws a uniformly random single-bit fault for the given
// format, site, and target, over a tensor with n elements. BFP metadata
// faults pick a random block register.
func RandomFault(r *rng.RNG, format numfmt.Format, layer, n int, site Site, target Target) Fault {
	f := Fault{Layer: layer, Site: site, Target: target}
	switch site {
	case SiteValue:
		f.Element = r.Intn(n)
		f.Bit = r.Intn(format.BitWidth())
	case SiteMetadata:
		width := MetaBitWidth(format)
		if width == 0 {
			panic(fmt.Sprintf("inject: %s has no metadata to fault", format.Name()))
		}
		f.Bit = r.Intn(width)
		if bfp, ok := format.(*numfmt.BFP); ok {
			if bs := bfp.BlockSize(); bs > 0 && n > bs {
				f.MetaIndex = r.Intn((n + bs - 1) / bs)
			}
		}
	}
	return f
}
