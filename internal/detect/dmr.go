package detect

import (
	"math"

	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// DMR is duplicate-and-compare: every monitored inference is executed twice
// and the outputs compared exactly, row by row (migrated out of the
// campaign engine's hardcoded MeasureDMR path). It detects any transient
// fault that perturbs the output — but is structurally blind to persistent
// weight corruption, which corrupts both executions identically; the
// protection experiment demonstrates exactly that blindness. Detection is
// output-level, so events carry layer -1. PolicyClamp/PolicyZero have no
// in-place repair for DMR (there is nothing to repair once the pass
// finished); pair it with PolicyReexecute or PolicyAbort instead.
type DMR struct{}

var (
	_ Detector   = DMR{}
	_ Comparator = DMR{}
)

// Name implements Detector.
func (DMR) Name() string { return "dmr" }

// CalibrationHooks implements Detector (none needed).
func (DMR) CalibrationHooks() (*nn.HookSet, func()) { return nil, nil }

// FinishCalibration implements Detector.
func (DMR) FinishCalibration() error { return nil }

// Arm implements Detector. DMR monitors outputs only, so it installs no
// hooks; the campaign engine sees the pipeline's NeedsRerun and hands both
// outputs to Compare.
func (DMR) Arm(*Recorder, Policy) *nn.HookSet { return nil }

// Compare implements Comparator: a row is flagged when its faulty output
// differs bitwise from the duplicate execution's — the hardware comparator
// semantics, which (unlike a numeric |a−b| > 0 check) also catches outputs
// corrupted to NaN. Deterministic duplicate executions are bit-identical,
// so fault-free rows never flag.
func (d DMR) Compare(rec *Recorder, faulty, rerun *tensor.Tensor) {
	if faulty == nil || rerun == nil {
		return
	}
	fd, rd := faulty.Data(), rerun.Data()
	if len(fd) != len(rd) {
		return
	}
	for row := 0; row < rec.Rows(); row++ {
		lo, hi, ok := rowSpan(len(fd), rec.Rows(), row)
		if !ok {
			continue
		}
		for i := lo; i < hi; i++ {
			if math.Float32bits(fd[i]) != math.Float32bits(rd[i]) {
				rec.Flag(d.Name(), -1, row)
				break
			}
		}
	}
}
