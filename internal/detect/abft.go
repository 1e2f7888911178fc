package detect

import (
	"fmt"

	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// DefaultABFTMargin is the tolerance multiplier over the largest fault-free
// residual observed during calibration.
const DefaultABFTMargin = 4.0

// ABFT is an algorithm-based fault-tolerance checksum guard for the matmul
// layers (Linear and Conv2D, the paper's default injection targets). At
// build time it seals column checksums of each layer's weights — after
// campaign-level weight quantization, so the checksums describe the weights
// the clean network actually runs with. Armed, it predicts each sample's
// output sum from the input and the sealed checksums and compares it
// against the actual output sum:
//
//	Linear (W of shape (in, out)):  Σ_o y[o] = Σ_i x[i]·wsum[i] + Σ_o b[o]
//	Conv  (lowered through im2col): Σ y     = Σ_k esum[k]·colsum[k] + OH·OW·Σ b
//
// Because the checksums come from the clean weights, ABFT detects
// persistent weight corruption — the class DMR is structurally blind to —
// as well as transient value faults at its layers' outputs. Residuals are
// never exactly zero (the forward pass accumulates in float32 and format
// emulation re-quantizes outputs), so the detection threshold is
// calibrated: the fault-free calibration pass records each layer's largest
// per-sample residual and the armed threshold is margin × that maximum,
// which by construction never flags the pool that calibrated it. Residuals
// are computed per sample (the finest row unit) in element order during
// both calibration and detection, so thresholds are independent of batch
// grouping and batched passes flag exactly the rows a serial campaign
// would. ABFT locates no individual element, so PolicyClamp and PolicyZero
// cannot repair in place; pair it with PolicyReexecute or PolicyAbort.
type ABFT struct {
	margin   float64
	checks   map[int]*abftCheck
	maxResid map[int]float64
	tol      map[int]float64
	sealed   bool
}

var _ Detector = (*ABFT)(nil)

type abftCheck struct {
	linear *linearCheck
	conv   *convCheck
}

type linearCheck struct {
	in, out int
	wsum    []float64 // Σ over output columns of W, per input index
	bsum    float64
}

type convCheck struct {
	kh, kw, stride, pad int
	esum                []float64 // Σ over output channels of W, per (C,KH,KW) element
	bsum                float64
}

// NewABFT seals checksums for every Linear/Conv2D layer reachable through
// t.Modules. It errors when the target exposes no such layer.
func NewABFT(t Target, margin float64) (*ABFT, error) {
	if margin <= 1 {
		margin = DefaultABFTMargin
	}
	a := &ABFT{
		margin:   margin,
		checks:   make(map[int]*abftCheck),
		maxResid: make(map[int]float64),
		tol:      make(map[int]float64),
	}
	for idx, m := range t.Modules {
		switch mod := m.(type) {
		case *nn.Linear:
			w := mod.Weight().Value
			in, out := w.Dim(0), w.Dim(1)
			c := &linearCheck{in: in, out: out, wsum: make([]float64, in)}
			wd := w.Data()
			for i := 0; i < in; i++ {
				for o := 0; o < out; o++ {
					c.wsum[i] += float64(wd[i*out+o])
				}
			}
			for _, b := range mod.Bias().Value.Data() {
				c.bsum += float64(b)
			}
			a.checks[idx] = &abftCheck{linear: c}
		case *nn.Conv2D:
			w := mod.Weight().Value
			oc := w.Dim(0)
			k := w.Len() / oc
			c := &convCheck{
				kh:     w.Dim(2),
				kw:     w.Dim(3),
				stride: mod.Stride(),
				pad:    mod.Pad(),
				esum:   make([]float64, k),
			}
			wd := w.Data()
			for o := 0; o < oc; o++ {
				for i := 0; i < k; i++ {
					c.esum[i] += float64(wd[o*k+i])
				}
			}
			for _, b := range mod.Bias().Value.Data() {
				c.bsum += float64(b)
			}
			a.checks[idx] = &abftCheck{conv: c}
		}
	}
	if len(a.checks) == 0 {
		return nil, fmt.Errorf("detect: abft found no linear/conv layer to guard")
	}
	return a, nil
}

// Name implements Detector.
func (a *ABFT) Name() string { return "abft" }

// residuals invokes fn with each sample's |observed − predicted| residual
// for layer idx and the number of samples, given the layer's captured
// input and output. Samples are the finest row unit: Linear flattens
// higher-rank inputs to (N', in) rows, Conv samples are the NCHW batch
// entries. fn is called in sample order.
func (a *ABFT) residuals(idx int, x, y *tensor.Tensor, fn func(sample, samples int, resid float64)) {
	check := a.checks[idx]
	if check == nil || x == nil {
		return
	}
	yd := y.Data()
	if c := check.linear; c != nil {
		xd := x.Data()
		if c.in == 0 || c.out == 0 || len(xd)%c.in != 0 {
			return
		}
		samples := len(xd) / c.in
		if samples == 0 || len(yd) != samples*c.out {
			return
		}
		for s := 0; s < samples; s++ {
			pred := c.bsum
			for i, v := range xd[s*c.in : (s+1)*c.in] {
				pred += float64(float64(v) * c.wsum[i])
			}
			obs := 0.0
			for _, v := range yd[s*c.out : (s+1)*c.out] {
				obs += float64(v)
			}
			fn(s, samples, absf(obs-pred))
		}
		return
	}
	c := check.conv
	if x.Rank() != 4 {
		return
	}
	samples := x.Dim(0)
	if samples == 0 || len(yd)%samples != 0 {
		return
	}
	span := len(yd) / samples
	oh := tensor.ConvOut(x.Dim(2), c.kh, c.stride, c.pad)
	ow := tensor.ConvOut(x.Dim(3), c.kw, c.stride, c.pad)
	for s := 0; s < samples; s++ {
		col := tensor.Im2Col(x.Slice(s, s+1), c.kh, c.kw, c.stride, c.pad) // (C*KH*KW, OH*OW)
		if col.Dim(0) != len(c.esum) {
			return
		}
		cols := col.Dim(1)
		cd := col.Data()
		pred := float64(oh*ow) * c.bsum
		for k, e := range c.esum {
			rowSum := 0.0
			for _, v := range cd[k*cols : (k+1)*cols] {
				rowSum += float64(v)
			}
			pred += float64(e * rowSum)
		}
		obs := 0.0
		for _, v := range yd[s*span : (s+1)*span] {
			obs += float64(v)
		}
		fn(s, samples, absf(obs-pred))
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// hooks builds a pre/post hook pair that captures each guarded layer's
// input and hands per-sample residuals to fn. Scratch state (the captured
// inputs) lives in the closure, so every call arms an independent pass.
func (a *ABFT) hooks(fn func(idx, sample, samples int, resid float64)) *nn.HookSet {
	inputs := make(map[int]*tensor.Tensor)
	hooks := nn.NewHookSet()
	hooks.PreForward(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		if a.checks[info.Index] != nil {
			inputs[info.Index] = t
		}
		return t
	})
	hooks.PostForward(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		if a.checks[info.Index] == nil {
			return t
		}
		a.residuals(info.Index, inputs[info.Index], t, func(sample, samples int, resid float64) {
			fn(info.Index, sample, samples, resid)
		})
		return t
	})
	return hooks
}

// CalibrationHooks implements Detector: the pass records each layer's
// largest per-sample residual (batch grouping is irrelevant — samples are
// independent), and its fold raises the detector's maxima to the pass's.
func (a *ABFT) CalibrationHooks() (*nn.HookSet, func()) {
	maxResid := make(map[int]float64)
	hooks := a.hooks(func(idx, _, _ int, resid float64) {
		if resid > maxResid[idx] {
			maxResid[idx] = resid
		}
	})
	return hooks, func() {
		for idx, resid := range maxResid {
			if resid > a.maxResid[idx] {
				a.maxResid[idx] = resid
			}
		}
	}
}

// FinishCalibration implements Detector, sealing per-layer thresholds.
func (a *ABFT) FinishCalibration() error {
	for idx := range a.checks {
		a.tol[idx] = float64(a.margin*a.maxResid[idx]) + 1e-9
	}
	a.sealed = true
	return nil
}

// Tolerance returns the sealed detection threshold of layer idx.
func (a *ABFT) Tolerance(idx int) float64 { return a.tol[idx] }

// Arm implements Detector. A violating sample flags the batch row that
// owns it (samples divide evenly across rows; Linear may see several
// flattened samples per row).
func (a *ABFT) Arm(rec *Recorder, _ Policy) *nn.HookSet {
	return a.hooks(func(idx, sample, samples int, resid float64) {
		if resid <= a.tol[idx] {
			return
		}
		rows := rec.Rows()
		if rows <= 0 || samples%rows != 0 {
			rec.Flag(a.Name(), idx, 0)
			return
		}
		rec.Flag(a.Name(), idx, sample/(samples/rows))
	})
}
