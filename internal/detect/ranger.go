package detect

import (
	"math"

	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// Ranger is the calibrated per-layer range guard (modeled on the Ranger
// range-restriction detector the paper toggles in §V-B). During
// calibration it records the min/max output of every layer on fault-free
// pool inferences — under the campaign's format emulation, so each format
// family calibrates its own envelope. Armed, it flags any row whose
// activation leaves the calibrated range or goes non-finite; PolicyClamp
// repairs with exactly the legacy clamp semantics (NaN → hi, clamp to
// [lo, hi]), PolicyZero zeroes the offending elements. ClampHook is that
// legacy clamp on its own, without detection: the campaign's UseRanger
// switch.
type Ranger struct {
	bounds
}

// bounds are per-layer output ranges, by layer visit index.
type bounds struct{ lo, hi map[int]float32 }

func newBounds() bounds {
	return bounds{lo: make(map[int]float32), hi: make(map[int]float32)}
}

var _ Detector = (*Ranger)(nil)

// NewRanger returns an uncalibrated ranger. It learns its bounds on the
// campaign's fault-free pass.
func NewRanger() *Ranger {
	return &Ranger{bounds: newBounds()}
}

// Name implements Detector.
func (r *Ranger) Name() string { return "ranger" }

// Bounds returns the calibrated range of layer i (false if never observed).
func (r *Ranger) Bounds(i int) (lo, hi float32, ok bool) {
	lo, ok1 := r.lo[i]
	hi, ok2 := r.hi[i]
	return lo, hi, ok1 && ok2
}

// observe widens layer idx's bounds to cover t.
func (b bounds) observe(idx int, t *tensor.Tensor) {
	lo, hi := t.MinMax()
	b.widen(idx, lo, hi)
}

// widen widens layer idx's bounds to cover [lo, hi]. The strict
// comparisons keep the first of two equal bounds, so of −0 and +0 the one
// observed first stays: bounds folded pass by pass in pool order are
// bit-identical to one pass's over the whole pool.
func (b bounds) widen(idx int, lo, hi float32) {
	if cur, ok := b.lo[idx]; !ok || lo < cur {
		b.lo[idx] = lo
	}
	if cur, ok := b.hi[idx]; !ok || hi > cur {
		b.hi[idx] = hi
	}
}

// CalibrationHooks implements Detector: the pass's hooks record each
// layer's output range, and its fold widens the ranger's bounds by them.
func (r *Ranger) CalibrationHooks() (*nn.HookSet, func()) {
	pass := newBounds()
	hooks := nn.NewHookSet()
	hooks.PostForward(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		pass.observe(info.Index, t)
		return t
	})
	return hooks, func() {
		for idx, lo := range pass.lo {
			r.widen(idx, lo, pass.hi[idx])
		}
	}
}

// FinishCalibration implements Detector: the folded bounds need no
// sealing.
func (r *Ranger) FinishCalibration() error { return nil }

// outOfRange reports whether v violates [lo, hi]; NaN always does.
func outOfRange(v, lo, hi float32) bool {
	return !(v >= lo && v <= hi)
}

// clamp maps v into [lo, hi], NaN to hi.
func clamp(v, lo, hi float32) float32 {
	switch {
	case math.IsNaN(float64(v)):
		return hi
	case v < lo:
		return lo
	case v > hi:
		return hi
	}
	return v
}

// flagRow reports whether any element of seg violates [lo, hi].
func flagRow(seg []float32, lo, hi float32) bool {
	for _, v := range seg {
		if outOfRange(v, lo, hi) {
			return true
		}
	}
	return false
}

// Arm implements Detector. Repair is row-confined: only flagged rows are
// touched, and in-range values are fixed points of the clamp, so batched
// campaign passes deliver bit-identical activations to serial ones (and to
// ClampHook, which clamps every value unconditionally).
func (r *Ranger) Arm(rec *Recorder, policy Policy) *nn.HookSet {
	hooks := nn.NewHookSet()
	hooks.PostForward(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		lo, hi, ok := r.Bounds(info.Index)
		if !ok {
			return t
		}
		data := t.Data()
		for row := 0; row < rec.Rows(); row++ {
			s, e, ok := rowSpan(len(data), rec.Rows(), row)
			if !ok || !flagRow(data[s:e], lo, hi) {
				continue
			}
			rec.Flag(r.Name(), info.Index, row)
			switch policy {
			case PolicyClamp:
				seg := data[s:e]
				for i, v := range seg {
					seg[i] = clamp(v, lo, hi)
				}
			case PolicyZero:
				seg := data[s:e]
				for i, v := range seg {
					if outOfRange(v, lo, hi) {
						seg[i] = 0
					}
				}
			}
		}
		return t
	})
	return hooks
}

// ClampHook returns a post-forward hook that clamps every layer's output to
// its calibrated range and replaces NaN with the upper bound, recording no
// detection. Register it AFTER injection hooks so faults are detected, not
// prevented. An output already within range is returned as is, without
// allocating; only a tensor with something to clamp is copied.
func (r *Ranger) ClampHook() nn.HookFunc {
	return func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		lo, hi, ok := r.Bounds(info.Index)
		if !ok || !flagRow(t.Data(), lo, hi) {
			return t
		}
		return t.Apply(func(v float32) float32 { return clamp(v, lo, hi) })
	}
}
