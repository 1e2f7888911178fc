package nn

import (
	"fmt"
	"math"

	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// MultiHeadAttention is standard scaled dot-product self-attention over
// (N, T, D) token tensors, with fused QKV and output projections. The
// projections are Linear children routed through the context, so format
// emulation and fault injection hook them like any other LINEAR layer.
type MultiHeadAttention struct {
	name  string
	dim   int
	heads int
	qkv   *Linear // D → 3D
	proj  *Linear // D → D

	lastShape []int            // (N, T, D)
	lastQKV   *tensor.Tensor   // (N*T, 3D)
	lastAttn  []*tensor.Tensor // per (n*heads+h): (T, T) softmax matrix
}

var _ Module = (*MultiHeadAttention)(nil)

// NewMultiHeadAttention returns a self-attention module with the given
// embedding dim and head count (dim must divide evenly).
func NewMultiHeadAttention(name string, dim, heads int, r *rng.RNG) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by %d heads", dim, heads))
	}
	return &MultiHeadAttention{
		name:  name,
		dim:   dim,
		heads: heads,
		qkv:   NewLinear(name+".qkv", dim, 3*dim, r),
		proj:  NewLinear(name+".proj", dim, dim, r),
	}
}

// Name implements Module.
func (m *MultiHeadAttention) Name() string { return m.name }

// Kind implements Module.
func (m *MultiHeadAttention) Kind() Kind { return KindAttention }

// Params implements Module.
func (m *MultiHeadAttention) Params() []*Param {
	return append(m.qkv.Params(), m.proj.Params()...)
}

// headSlice extracts (T, dh) for batch n, head h from a (N*T, stride)
// matrix; which selects Q (0), K (1) or V (2) within the row (always 0 for
// single-projection matrices with stride = dim).
func (m *MultiHeadAttention) headSlice(mat *tensor.Tensor, n, t, h, which, stride int) *tensor.Tensor {
	dh := m.dim / m.heads
	out := tensor.New(t, dh)
	for ti := 0; ti < t; ti++ {
		row := mat.Data()[(n*t+ti)*stride:]
		src := row[which*m.dim+h*dh : which*m.dim+(h+1)*dh]
		copy(out.Data()[ti*dh:(ti+1)*dh], src)
	}
	return out
}

func (m *MultiHeadAttention) scatterHead(dst *tensor.Tensor, src *tensor.Tensor, n, t, h, which, stride int) {
	dh := m.dim / m.heads
	for ti := 0; ti < t; ti++ {
		row := dst.Data()[(n*t+ti)*stride:]
		copy(row[which*m.dim+h*dh:which*m.dim+(h+1)*dh], src.Data()[ti*dh:(ti+1)*dh])
	}
}

// Forward implements Module on (N, T, D) input.
func (m *MultiHeadAttention) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(2) != m.dim {
		panic(fmt.Sprintf("nn: %s expects (N, T, %d), got %v", m.name, m.dim, x.Shape()))
	}
	n, t := x.Dim(0), x.Dim(1)
	m.lastShape = x.Shape()

	qkv := ctx.Apply(m.qkv, x.Reshape(n*t, m.dim)) // (N*T, 3D)
	m.lastQKV = qkv
	m.lastAttn = make([]*tensor.Tensor, n*m.heads)

	dh := m.dim / m.heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	mixed := tensor.New(n*t, m.dim)
	for ni := 0; ni < n; ni++ {
		for h := 0; h < m.heads; h++ {
			q := m.headSlice(qkv, ni, t, h, 0, 3*m.dim)
			k := m.headSlice(qkv, ni, t, h, 1, 3*m.dim)
			v := m.headSlice(qkv, ni, t, h, 2, 3*m.dim)
			scores := q.MatMulT(k)
			scores.ScaleInPlace(scale)
			attn := scores.SoftmaxRows()
			m.lastAttn[ni*m.heads+h] = attn
			out := attn.MatMul(v) // (T, dh)
			m.scatterHead(mixed, out, ni, t, h, 0, m.dim)
		}
	}
	y := ctx.Apply(m.proj, mixed) // (N*T, D)
	return y.Reshape(n, t, m.dim)
}

// Backward implements Module.
func (m *MultiHeadAttention) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if m.lastQKV == nil {
		panic("nn: MultiHeadAttention.Backward before Forward")
	}
	n, t := m.lastShape[0], m.lastShape[1]
	dh := m.dim / m.heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	dMixed := m.proj.Backward(gradOut.Reshape(n*t, m.dim)) // (N*T, D)
	dQKV := tensor.New(n*t, 3*m.dim)
	for ni := 0; ni < n; ni++ {
		for h := 0; h < m.heads; h++ {
			attn := m.lastAttn[ni*m.heads+h]
			q := m.headSlice(m.lastQKV, ni, t, h, 0, 3*m.dim)
			k := m.headSlice(m.lastQKV, ni, t, h, 1, 3*m.dim)
			v := m.headSlice(m.lastQKV, ni, t, h, 2, 3*m.dim)
			dOut := m.headSlice(dMixed, ni, t, h, 0, m.dim)

			dAttn := dOut.MatMulT(v) // (T, T)
			dV := attn.TMatMul(dOut) // (T, dh)

			// Softmax backward per row: dS = A ⊙ (dA − rowSum(dA ⊙ A)).
			dScores := tensor.New(t, t)
			for i := 0; i < t; i++ {
				ar := attn.Data()[i*t : (i+1)*t]
				dr := dAttn.Data()[i*t : (i+1)*t]
				var dot float64
				for j := range ar {
					dot += float64(float64(ar[j]) * float64(dr[j]))
				}
				ds := dScores.Data()[i*t : (i+1)*t]
				for j := range ar {
					ds[j] = ar[j] * (dr[j] - float32(dot))
				}
			}
			dScores.ScaleInPlace(scale)

			dQ := dScores.MatMul(k)  // (T, dh)
			dK := dScores.TMatMul(q) // (T, dh)

			m.scatterHead(dQKV, dQ, ni, t, h, 0, 3*m.dim)
			m.scatterHead(dQKV, dK, ni, t, h, 1, 3*m.dim)
			m.scatterHead(dQKV, dV, ni, t, h, 2, 3*m.dim)
		}
	}
	dx := m.qkv.Backward(dQKV) // (N*T, D)
	return dx.Reshape(n, t, m.dim)
}
