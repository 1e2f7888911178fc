package tensor

import (
	"fmt"
	"time"
)

// ConvOut returns the spatial output size of a convolution/pooling window.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col unfolds an NCHW input into a (C*KH*KW, N*OH*OW) matrix so that a
// convolution becomes a single matrix multiply with a (OC, C*KH*KW) weight
// matrix. This is the standard lowering used by the original system's
// backends.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: Im2Col requires NCHW input, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	out := New(c*kh*kw, n*oh*ow)
	defer func(start time.Time) { recordIm2Col(start) }(time.Now())
	cols := n * oh * ow
	for ci := 0; ci < c; ci++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := (ci*kh+ki)*kw + kj
				dst := out.data[row*cols : (row+1)*cols]
				// Output columns [ojLo, ojHi) read input columns inside the
				// image; the rest stay zero padding.
				ojLo, ojHi := colSpan(ow, w, stride, pad-kj)
				if ojLo >= ojHi {
					continue
				}
				for ni := 0; ni < n; ni++ {
					src := x.data[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
					for oi := 0; oi < oh; oi++ {
						ii := oi*stride - pad + ki
						if ii < 0 || ii >= h {
							continue // leave zero padding
						}
						d := dst[(ni*oh+oi)*ow+ojLo : (ni*oh+oi)*ow+ojHi]
						s := src[ii*w+ojLo*stride-pad+kj:]
						if stride == 1 {
							copy(d, s)
							continue
						}
						for oj := range d {
							d[oj] = s[oj*stride]
						}
					}
				}
			}
		}
	}
	return out
}

// colSpan returns the output columns [lo, hi) of an im2col row whose input
// column oj*stride - off falls inside [0, w), for oj in [0, ow).
func colSpan(ow, w, stride, off int) (lo, hi int) {
	if off > 0 {
		lo = (off + stride - 1) / stride
	}
	if last := w - 1 + off; last >= 0 {
		hi = min(ow, last/stride+1)
	}
	return min(lo, ow), hi
}

// Col2Im folds a (C*KH*KW, N*OH*OW) column matrix back into an NCHW tensor,
// accumulating overlapping windows. It is the adjoint of Im2Col and is used
// to compute input gradients of convolutions.
func Col2Im(col *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	cols := n * oh * ow
	if len(col.shape) != 2 || col.shape[0] != c*kh*kw || col.shape[1] != cols {
		panic(fmt.Sprintf("tensor: Col2Im shape %v does not match (%d, %d)", col.shape, c*kh*kw, cols))
	}
	out := New(n, c, h, w)
	for ci := 0; ci < c; ci++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := (ci*kh+ki)*kw + kj
				src := col.data[row*cols : (row+1)*cols]
				for ni := 0; ni < n; ni++ {
					dst := out.data[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
					for oi := 0; oi < oh; oi++ {
						ii := oi*stride - pad + ki
						if ii < 0 || ii >= h {
							continue
						}
						base := (ni*oh + oi) * ow
						for oj := 0; oj < ow; oj++ {
							jj := oj*stride - pad + kj
							if jj < 0 || jj >= w {
								continue
							}
							dst[ii*w+jj] += src[base+oj]
						}
					}
				}
			}
		}
	}
	return out
}

// MaxPool2D applies kxk max pooling with the given stride to an NCHW tensor.
// It returns the pooled tensor and the flat argmax index (into the input's
// per-image-channel plane) of each output element, which the backward pass
// uses to route gradients.
func MaxPool2D(x *Tensor, k, stride int) (*Tensor, []int) {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D requires NCHW input, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, k, stride, 0), ConvOut(w, k, stride, 0)
	out := New(n, c, oh, ow)
	arg := make([]int, n*c*oh*ow)
	for nc := 0; nc < n*c; nc++ {
		plane := x.data[nc*h*w : (nc+1)*h*w]
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				best := float32(0)
				bestIdx := -1
				for ki := 0; ki < k; ki++ {
					for kj := 0; kj < k; kj++ {
						ii, jj := oi*stride+ki, oj*stride+kj
						v := plane[ii*w+jj]
						if bestIdx < 0 || v > best {
							best, bestIdx = v, ii*w+jj
						}
					}
				}
				o := (nc*oh+oi)*ow + oj
				out.data[o] = best
				arg[o] = bestIdx
			}
		}
	}
	return out, arg
}

// AvgPool2DGlobal averages each channel plane of an NCHW tensor, returning a
// rank-2 (N, C) tensor. This is the global-average-pool head used by the
// residual CNN models.
func AvgPool2DGlobal(x *Tensor) *Tensor {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: AvgPool2DGlobal requires NCHW input, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n, c)
	inv := 1 / float32(h*w)
	for nc := 0; nc < n*c; nc++ {
		var sum float32
		for _, v := range x.data[nc*h*w : (nc+1)*h*w] {
			sum += v
		}
		out.data[nc] = sum * inv
	}
	return out
}
