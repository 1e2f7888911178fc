package nn

import (
	"fmt"
	"math"

	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors, lowered to matrix multiply
// through im2col (the same lowering the original system's backends use).
type Conv2D struct {
	name        string
	w           *Param // (OC, C, KH, KW)
	b           *Param // (OC)
	stride, pad int

	lastCol   *tensor.Tensor // im2col of last input, for Backward
	lastShape []int          // last input shape
}

var _ Module = (*Conv2D)(nil)

// NewConv2D returns a convolution layer with Kaiming-normal initialized
// weights.
func NewConv2D(name string, inC, outC, kernel, stride, pad int, r *rng.RNG) *Conv2D {
	fanIn := float64(inC * kernel * kernel)
	std := math.Sqrt(2.0 / fanIn)
	return &Conv2D{
		name:   name,
		w:      NewParam(name+".weight", tensor.Randn(r, std, outC, inC, kernel, kernel)),
		b:      NewParam(name+".bias", tensor.New(outC)),
		stride: stride,
		pad:    pad,
	}
}

// Name implements Module.
func (c *Conv2D) Name() string { return c.name }

// Kind implements Module.
func (c *Conv2D) Kind() Kind { return KindConv }

// Params implements Module.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Weight returns the (OC, C, KH, KW) weight parameter.
func (c *Conv2D) Weight() *Param { return c.w }

// Bias returns the (OC) bias parameter.
func (c *Conv2D) Bias() *Param { return c.b }

// Stride returns the convolution stride.
func (c *Conv2D) Stride() int { return c.stride }

// Pad returns the zero padding applied on each spatial border.
func (c *Conv2D) Pad() int { return c.pad }

// Forward implements Module. A staged epilogue (fused emulation of the
// output) is applied during NCHW assembly: element-local epilogues run on
// each (sample, channel) plane right after its bias add while the plane
// is cache-hot; epilogues with per-sample or tensor-wide metadata run once
// on the assembled NCHW output, whose samples are the contiguous spans
// EmulateBatched groups.
func (c *Conv2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", c.name, x.Shape()))
	}
	oc, kh, kw := c.w.Value.Dim(0), c.w.Value.Dim(2), c.w.Value.Dim(3)
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := tensor.ConvOut(h, kh, c.stride, c.pad), tensor.ConvOut(w, kw, c.stride, c.pad)

	col := tensor.Im2Col(x, kh, kw, c.stride, c.pad)
	c.lastCol = col
	c.lastShape = x.Shape()

	wm := c.w.Value.Reshape(oc, -1)
	plane := oh * ow
	spec, hasAccum := ctx.TakeAccum()
	var accum *tensor.AccumHook
	if hasAccum {
		accum = convAccumHook(spec, plane)
	}
	y := wm.MatMulBias(col, nil, tensor.Epilogue{Accum: accum}) // (oc, n*oh*ow)

	ep, _ := ctx.TakeEpilogue()
	out := tensor.New(n, oc, oh, ow)
	bias := c.b.Value.Data()
	quant := spec.Quant
	for oci := 0; oci < oc; oci++ {
		src := y.Data()[oci*n*plane : (oci+1)*n*plane]
		bv := bias[oci]
		for ni := 0; ni < n; ni++ {
			dst := out.Data()[(ni*oc+oci)*plane : (ni*oc+oci+1)*plane]
			s := src[ni*plane : (ni+1)*plane]
			for i := range dst {
				dst[i] = s[i] + bv
			}
			if quant != nil {
				// Bias add is the accumulator's final step: the register
				// rounds after it like after every multiply-accumulate.
				quant.Round(dst)
			}
			if ep.Tile != nil {
				ep.Tile(dst)
			}
		}
	}
	ep.Apply(out.Data())
	return out
}

// Backward implements Module.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.lastCol == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	oc, kh, kw := c.w.Value.Dim(0), c.w.Value.Dim(2), c.w.Value.Dim(3)
	n, ch, h, w := c.lastShape[0], c.lastShape[1], c.lastShape[2], c.lastShape[3]
	oh, ow := gradOut.Dim(2), gradOut.Dim(3)
	plane := oh * ow

	// Reorder gradOut (N, OC, OH, OW) → (OC, N*OH*OW).
	g2 := tensor.New(oc, n*plane)
	for ni := 0; ni < n; ni++ {
		for oci := 0; oci < oc; oci++ {
			src := gradOut.Data()[(ni*oc+oci)*plane : (ni*oc+oci+1)*plane]
			copy(g2.Data()[(oci*n+ni)*plane:(oci*n+ni+1)*plane], src)
		}
	}

	// dW = g2 · colᵀ ; db = row sums of g2 ; dcol = Wᵀ · g2.
	dw := g2.MatMulT(c.lastCol) // (oc, C*KH*KW)
	c.w.Grad.AddInPlace(dw.Reshape(c.w.Value.Shape()...))
	for oci := 0; oci < oc; oci++ {
		var sum float32
		for _, v := range g2.Data()[oci*n*plane : (oci+1)*n*plane] {
			sum += v
		}
		c.b.Grad.Data()[oci] += sum
	}
	wm := c.w.Value.Reshape(oc, -1)
	dcol := wm.TMatMul(g2) // (C*KH*KW, N*OH*OW)
	return tensor.Col2Im(dcol, n, ch, h, w, kh, kw, c.stride, c.pad)
}
