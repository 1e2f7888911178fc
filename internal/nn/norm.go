package nn

import (
	"fmt"
	"math"

	"goldeneye/internal/tensor"
)

const normEps = 1e-5

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch and
// spatial axes. Training mode uses batch statistics and updates running
// estimates; evaluation mode uses the running estimates.
type BatchNorm2D struct {
	name     string
	gamma    *Param // (C)
	beta     *Param // (C)
	runMean  *Param // (C), frozen state
	runVar   *Param // (C), frozen state
	momentum float32

	// Cached state for Backward (training mode).
	lastInput *tensor.Tensor
	lastNorm  *tensor.Tensor
	lastMean  []float32
	lastIStd  []float32
}

var _ Module = (*BatchNorm2D)(nil)

// NewBatchNorm2D returns a batch-normalization layer over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	b := &BatchNorm2D{
		name:     name,
		gamma:    NewParam(name+".gamma", tensor.Full(1, c)),
		beta:     NewParam(name+".beta", tensor.New(c)),
		runMean:  NewParam(name+".running_mean", tensor.New(c)),
		runVar:   NewParam(name+".running_var", tensor.Full(1, c)),
		momentum: 0.1,
	}
	b.runMean.Frozen = true
	b.runVar.Frozen = true
	return b
}

// Name implements Module.
func (b *BatchNorm2D) Name() string { return b.name }

// Kind implements Module.
func (b *BatchNorm2D) Kind() Kind { return KindBatchNorm }

// Params implements Module. The running statistics are included as frozen
// parameters so model serialization captures them.
func (b *BatchNorm2D) Params() []*Param {
	return []*Param{b.gamma, b.beta, b.runMean, b.runVar}
}

// RunningStats exposes the running mean and variance.
func (b *BatchNorm2D) RunningStats() (mean, variance []float32) {
	return b.runMean.Value.Data(), b.runVar.Value.Data()
}

// Forward implements Module.
func (b *BatchNorm2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s expects NCHW input, got %v", b.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != b.gamma.Value.Len() {
		panic(fmt.Sprintf("nn: %s channel mismatch: %d vs %d", b.name, c, b.gamma.Value.Len()))
	}
	training := ctx != nil && ctx.Training
	out := tensor.New(n, c, h, w)
	plane := h * w

	mean := make([]float32, c)
	istd := make([]float32, c)
	if training {
		cnt := float32(n * plane)
		variance := make([]float32, c)
		for ci := 0; ci < c; ci++ {
			var sum float64
			for ni := 0; ni < n; ni++ {
				for _, v := range x.Data()[(ni*c+ci)*plane : (ni*c+ci+1)*plane] {
					sum += float64(v)
				}
			}
			m := float32(sum / float64(cnt))
			var sq float64
			for ni := 0; ni < n; ni++ {
				for _, v := range x.Data()[(ni*c+ci)*plane : (ni*c+ci+1)*plane] {
					d := float64(v - m)
					sq += float64(d * d)
				}
			}
			vr := float32(sq / float64(cnt))
			mean[ci] = m
			variance[ci] = vr
			istd[ci] = 1 / float32(math.Sqrt(float64(vr)+normEps))
			b.runMean.Value.Data()[ci] = float32((1-b.momentum)*b.runMean.Value.Data()[ci]) + float32(b.momentum*m)
			b.runVar.Value.Data()[ci] = float32((1-b.momentum)*b.runVar.Value.Data()[ci]) + float32(b.momentum*vr)
		}
	} else {
		for ci := 0; ci < c; ci++ {
			mean[ci] = b.runMean.Value.Data()[ci]
			istd[ci] = 1 / float32(math.Sqrt(float64(b.runVar.Value.Data()[ci])+normEps))
		}
	}

	norm := tensor.New(n, c, h, w)
	g, bt := b.gamma.Value.Data(), b.beta.Value.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			src := x.Data()[(ni*c+ci)*plane : (ni*c+ci+1)*plane]
			nrm := norm.Data()[(ni*c+ci)*plane : (ni*c+ci+1)*plane]
			dst := out.Data()[(ni*c+ci)*plane : (ni*c+ci+1)*plane]
			m, is, gg, bb := mean[ci], istd[ci], g[ci], bt[ci]
			for i, v := range src {
				xn := (v - m) * is
				nrm[i] = xn
				dst[i] = float32(gg*xn) + bb
			}
		}
	}
	if training {
		b.lastInput = x
		b.lastNorm = norm
		b.lastMean = mean
		b.lastIStd = istd
	}
	return out
}

// Backward implements Module (training-mode batch statistics gradient).
func (b *BatchNorm2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if b.lastNorm == nil {
		panic("nn: BatchNorm2D.Backward before training-mode Forward")
	}
	n, c := gradOut.Dim(0), gradOut.Dim(1)
	plane := gradOut.Dim(2) * gradOut.Dim(3)
	cnt := float32(n * plane)
	dx := tensor.New(gradOut.Shape()...)
	g := b.gamma.Value.Data()

	for ci := 0; ci < c; ci++ {
		// Accumulate per-channel sums of g and g·x̂.
		var sumG, sumGX float64
		for ni := 0; ni < n; ni++ {
			off := (ni*c + ci) * plane
			gs := gradOut.Data()[off : off+plane]
			xs := b.lastNorm.Data()[off : off+plane]
			for i, gv := range gs {
				sumG += float64(gv)
				sumGX += float64(float64(gv) * float64(xs[i]))
			}
		}
		b.beta.Grad.Data()[ci] += float32(sumG)
		b.gamma.Grad.Data()[ci] += float32(sumGX)

		// dx = γ·istd/N · (N·g − Σg − x̂·Σ(g·x̂))
		k := g[ci] * b.lastIStd[ci] / cnt
		for ni := 0; ni < n; ni++ {
			off := (ni*c + ci) * plane
			gs := gradOut.Data()[off : off+plane]
			xs := b.lastNorm.Data()[off : off+plane]
			ds := dx.Data()[off : off+plane]
			for i, gv := range gs {
				ds[i] = k * (float32(cnt*gv) - float32(sumG) - float32(xs[i]*float32(sumGX)))
			}
		}
	}
	return dx
}

// LayerNorm normalizes the last axis of a rank-2 (N, D) tensor; higher-rank
// inputs are treated as (Π leading, D).
type LayerNorm struct {
	name  string
	gamma *Param // (D)
	beta  *Param // (D)

	lastNorm *tensor.Tensor
	lastIStd []float32
	lastDims []int
}

var _ Module = (*LayerNorm)(nil)

// NewLayerNorm returns a layer-normalization module over feature width d.
func NewLayerNorm(name string, d int) *LayerNorm {
	return &LayerNorm{
		name:  name,
		gamma: NewParam(name+".gamma", tensor.Full(1, d)),
		beta:  NewParam(name+".beta", tensor.New(d)),
	}
}

// Name implements Module.
func (l *LayerNorm) Name() string { return l.name }

// Kind implements Module.
func (l *LayerNorm) Kind() Kind { return KindLayerNorm }

// Params implements Module.
func (l *LayerNorm) Params() []*Param { return []*Param{l.gamma, l.beta} }

// Forward implements Module.
func (l *LayerNorm) Forward(_ *Context, x *tensor.Tensor) *tensor.Tensor {
	d := l.gamma.Value.Len()
	l.lastDims = x.Shape()
	x2 := x.Reshape(-1, d)
	rows := x2.Dim(0)
	out := tensor.New(rows, d)
	norm := tensor.New(rows, d)
	istd := make([]float32, rows)
	g, bt := l.gamma.Value.Data(), l.beta.Value.Data()
	for i := 0; i < rows; i++ {
		src := x2.Data()[i*d : (i+1)*d]
		var sum float64
		for _, v := range src {
			sum += float64(v)
		}
		m := float32(sum / float64(d))
		var sq float64
		for _, v := range src {
			dv := float64(v - m)
			sq += float64(dv * dv)
		}
		is := float32(1 / math.Sqrt(sq/float64(d)+normEps))
		istd[i] = is
		nr := norm.Data()[i*d : (i+1)*d]
		dst := out.Data()[i*d : (i+1)*d]
		for j, v := range src {
			xn := (v - m) * is
			nr[j] = xn
			dst[j] = float32(g[j]*xn) + bt[j]
		}
	}
	l.lastNorm = norm
	l.lastIStd = istd
	return out.Reshape(l.lastDims...)
}

// Backward implements Module.
func (l *LayerNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastNorm == nil {
		panic("nn: LayerNorm.Backward before Forward")
	}
	d := l.gamma.Value.Len()
	g2 := gradOut.Reshape(-1, d)
	rows := g2.Dim(0)
	dx := tensor.New(rows, d)
	g := l.gamma.Value.Data()
	for i := 0; i < rows; i++ {
		gs := g2.Data()[i*d : (i+1)*d]
		xs := l.lastNorm.Data()[i*d : (i+1)*d]
		var sumG, sumGX float64
		for j, gv := range gs {
			gg := float64(float64(gv) * float64(g[j]))
			sumG += gg
			sumGX += float64(gg * float64(xs[j]))
			l.gamma.Grad.Data()[j] += float32(gv * xs[j])
			l.beta.Grad.Data()[j] += gv
		}
		k := l.lastIStd[i] / float32(d)
		ds := dx.Data()[i*d : (i+1)*d]
		for j, gv := range gs {
			gg := gv * g[j]
			ds[j] = k * (float32(float32(d)*gg) - float32(sumG) - float32(xs[j]*float32(sumGX)))
		}
	}
	return dx.Reshape(l.lastDims...)
}
