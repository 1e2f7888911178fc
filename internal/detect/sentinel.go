package detect

import (
	"math"

	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// Sentinel flags NaN/Inf in intermediate activations — not just the final
// logits, which is all the campaign's NonFinite counter used to see. Faults
// that go non-finite mid-network and saturate back to finite values (e.g. a
// NaN swallowed by a later clamp or max) were previously invisible; the
// sentinel records the first non-finite layer so the trace can attribute
// them. It needs no calibration. Under PolicyClamp or PolicyZero it zeroes
// the non-finite elements of flagged rows (there is no calibrated bound to
// clamp toward), letting the inference continue on damaged-but-finite
// state.
type Sentinel struct{}

var _ Detector = Sentinel{}

// Name implements Detector.
func (Sentinel) Name() string { return "sentinel" }

// CalibrationHooks implements Detector (none needed).
func (Sentinel) CalibrationHooks() (*nn.HookSet, func()) { return nil, nil }

// FinishCalibration implements Detector.
func (Sentinel) FinishCalibration() error { return nil }

// Arm implements Detector.
func (s Sentinel) Arm(rec *Recorder, policy Policy) *nn.HookSet {
	hooks := nn.NewHookSet()
	hooks.PostForward(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		data := t.Data()
		for row := 0; row < rec.Rows(); row++ {
			lo, hi, ok := rowSpan(len(data), rec.Rows(), row)
			if !ok {
				continue
			}
			seg := data[lo:hi]
			found := false
			for _, v := range seg {
				f := float64(v)
				if math.IsNaN(f) || math.IsInf(f, 0) {
					found = true
					break
				}
			}
			if !found {
				continue
			}
			rec.Flag(s.Name(), info.Index, row)
			rec.MarkNonFinite(info.Index, row)
			if policy == PolicyClamp || policy == PolicyZero {
				for i, v := range seg {
					f := float64(v)
					if math.IsNaN(f) || math.IsInf(f, 0) {
						seg[i] = 0
					}
				}
			}
		}
		return t
	})
	return hooks
}
