package tensor

import (
	"slices"
	"testing"

	"goldeneye/internal/rng"
)

// naiveConv2D is a direct reference convolution used only to validate the
// im2col lowering.
func naiveConv2D(x, w *Tensor, stride, pad int) *Tensor {
	n, c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oc, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	out := New(n, oc, oh, ow)
	for ni := 0; ni < n; ni++ {
		for oci := 0; oci < oc; oci++ {
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					var sum float64
					for ci := 0; ci < c; ci++ {
						for ki := 0; ki < kh; ki++ {
							for kj := 0; kj < kw; kj++ {
								ii, jj := oi*stride-pad+ki, oj*stride-pad+kj
								if ii < 0 || ii >= h || jj < 0 || jj >= wd {
									continue
								}
								sum += float64(x.At(ni, ci, ii, jj)) * float64(w.At(oci, ci, ki, kj))
							}
						}
					}
					out.Set(float32(sum), ni, oci, oi, oj)
				}
			}
		}
	}
	return out
}

// im2colConv performs convolution through the Im2Col lowering, the way the
// nn package does.
func im2colConv(x, w *Tensor, stride, pad int) *Tensor {
	n, h, wd := x.Dim(0), x.Dim(2), x.Dim(3)
	oc, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	col := Im2Col(x, kh, kw, stride, pad)
	wm := w.Reshape(oc, c*kh*kw)
	y := wm.MatMul(col) // (oc, n*oh*ow)
	// Reorder (oc, n, oh, ow) → (n, oc, oh, ow).
	out := New(n, oc, oh, ow)
	for oci := 0; oci < oc; oci++ {
		for ni := 0; ni < n; ni++ {
			for s := 0; s < oh*ow; s++ {
				out.Data()[((ni*oc+oci)*oh*ow)+s] = y.Data()[(oci*n+ni)*oh*ow+s]
			}
		}
	}
	return out
}

func TestIm2ColConvMatchesNaive(t *testing.T) {
	tests := []struct {
		name        string
		stride, pad int
	}{
		{name: "stride1_pad1", stride: 1, pad: 1},
		{name: "stride2_pad1", stride: 2, pad: 1},
		{name: "stride1_pad0", stride: 1, pad: 0},
	}
	r := rng.New(7)
	x := Randn(r, 1, 2, 3, 6, 6)
	w := Randn(r, 1, 4, 3, 3, 3)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := im2colConv(x, w, tt.stride, tt.pad)
			want := naiveConv2D(x, w, tt.stride, tt.pad)
			if !got.AllClose(want, 1e-4) {
				t.Fatalf("im2col conv differs from naive conv")
			}
		})
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> must hold for the gradient of a
	// convolution to be correct.
	r := rng.New(8)
	const (
		n, c, h, w       = 2, 3, 5, 5
		kh, kw, str, pad = 3, 3, 2, 1
	)
	x := Randn(r, 1, n, c, h, w)
	col := Im2Col(x, kh, kw, str, pad)
	y := Randn(r, 1, col.Dim(0), col.Dim(1))

	var lhs float64
	for i, v := range col.Data() {
		lhs += float64(v) * float64(y.Data()[i])
	}
	back := Col2Im(y, n, c, h, w, kh, kw, str, pad)
	var rhs float64
	for i, v := range back.Data() {
		rhs += float64(v) * float64(x.Data()[i])
	}
	if diff := lhs - rhs; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestMaxPool2D(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, arg := MaxPool2D(x, 2, 2)
	want := FromSlice([]float32{6, 8, 14, 16}, 1, 1, 2, 2)
	if !out.AllClose(want, 0) {
		t.Fatalf("MaxPool2D = %v", out)
	}
	// Argmax of the top-left window is flat index 5 (value 6).
	if arg[0] != 5 {
		t.Fatalf("argmax[0] = %d, want 5", arg[0])
	}
}

func TestMaxPool2DNegativeValues(t *testing.T) {
	// All-negative window must return the largest (least negative) value,
	// not an implicit zero.
	x := FromSlice([]float32{-4, -3, -2, -1}, 1, 1, 2, 2)
	out, _ := MaxPool2D(x, 2, 2)
	if out.At(0, 0, 0, 0) != -1 {
		t.Fatalf("MaxPool2D over negatives = %v, want -1", out.At(0, 0, 0, 0))
	}
}

func TestAvgPool2DGlobal(t *testing.T) {
	x := FromSlice([]float32{
		1, 3,
		5, 7, // channel 0 mean 4
		2, 2,
		2, 2, // channel 1 mean 2
	}, 1, 2, 2, 2)
	out := AvgPool2DGlobal(x)
	if out.At(0, 0) != 4 || out.At(0, 1) != 2 {
		t.Fatalf("AvgPool2DGlobal = %v", out)
	}
}

func TestConvOut(t *testing.T) {
	tests := []struct {
		in, k, s, p, want int
	}{
		{32, 3, 1, 1, 32},
		{32, 3, 2, 1, 16},
		{16, 4, 4, 0, 4},
		{8, 1, 1, 0, 8},
	}
	for _, tt := range tests {
		if got := ConvOut(tt.in, tt.k, tt.s, tt.p); got != tt.want {
			t.Errorf("ConvOut(%d,%d,%d,%d) = %d, want %d", tt.in, tt.k, tt.s, tt.p, got, tt.want)
		}
	}
}

// im2colPerElement is Im2Col's per-element bounds-tested loop, the
// reference for the span copies Im2Col makes instead.
func im2colPerElement(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	out := New(c*kh*kw, n*oh*ow)
	cols := n * oh * ow
	for ci := 0; ci < c; ci++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				dst := out.data[((ci*kh+ki)*kw+kj)*cols:]
				for ni := 0; ni < n; ni++ {
					src := x.data[(ni*c+ci)*h*w:]
					for oi := 0; oi < oh; oi++ {
						ii := oi*stride - pad + ki
						for oj := 0; oj < ow; oj++ {
							jj := oj*stride - pad + kj
							if ii >= 0 && ii < h && jj >= 0 && jj < w {
								dst[(ni*oh+oi)*ow+oj] = src[ii*w+jj]
							}
						}
					}
				}
			}
		}
	}
	return out
}

func TestIm2ColMatchesPerElementLoop(t *testing.T) {
	r := rng.New(3)
	for _, hw := range [][2]int{{1, 1}, {3, 5}, {5, 3}, {7, 7}, {9, 5}, {2, 6}} {
		for _, k := range []int{1, 2, 3, 5} {
			for pad := 0; pad <= 2; pad++ {
				for stride := 1; stride <= 2; stride++ {
					h, w := hw[0], hw[1]
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					x := Randn(r, 1, 2, 3, h, w)
					got, want := Im2Col(x, k, k, stride, pad), im2colPerElement(x, k, k, stride, pad)
					if !slices.Equal(got.Shape(), want.Shape()) || !slices.Equal(got.Data(), want.Data()) {
						t.Fatalf("h=%d w=%d k=%d pad=%d stride=%d: Im2Col differs from the per-element loop", h, w, k, pad, stride)
					}
				}
			}
		}
	}
}
