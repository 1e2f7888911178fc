package goldeneye_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldeneye"
	"goldeneye/internal/detect"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/telemetry"
)

// countingRanger is a ranger that counts its FinishCalibration calls.
type countingRanger struct {
	*detect.Ranger
	finishes *atomic.Int64
}

func (r countingRanger) FinishCalibration() error {
	r.finishes.Add(1)
	return r.Ranger.FinishCalibration()
}

// A parallel campaign calibrates once, not once per worker: one observation
// of the calibration histogram, and one FinishCalibration of a detector.
func TestCalibrationOncePerCampaign(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	const workers = 4

	t.Run("histogram", func(t *testing.T) {
		goldeneye.ResetCalibrationCache() // a hit has no calibration to time
		cfg := detectConfig(t, sim, x, y, 40, "ranger,abft,dmr", "reexecute")
		cfg.UseRanger = true
		cfg.Metrics = telemetry.NewRegistry()
		if _, err := goldeneye.RunCampaignParallel(context.Background(), cfg, workers, mlpBuilder(t)); err != nil {
			t.Fatal(err)
		}
		h := cfg.Metrics.Histogram(goldeneye.MetricCampaignCalibration, telemetry.DurationBuckets)
		if got := h.Count(); got != 1 {
			t.Fatalf("%d workers observed the calibration histogram %d times, want 1", workers, got)
		}
	})

	t.Run("cached_ranger", func(t *testing.T) {
		var finishes atomic.Int64
		cfg := detectConfig(t, sim, x, y, 40, "", "")
		cfg.Detectors = []detect.Spec{{Kind: "ranger", New: func(detect.Target) (detect.Detector, error) {
			return countingRanger{Ranger: detect.NewRanger(), finishes: &finishes}, nil
		}}}
		if _, err := goldeneye.RunCampaignParallel(context.Background(), cfg, workers, mlpBuilder(t)); err != nil {
			t.Fatal(err)
		}
		if got := finishes.Load(); got != 1 {
			t.Fatalf("%d workers sealed the ranger %d times, want 1", workers, got)
		}
	})
}

// failingDetector fails its calibration: FinishCalibration returns err,
// and with hook set, the pass-th CalibrationHooks call (from 1) gets
// hook(pass) as its post-forward hook.
type failingDetector struct {
	err    error
	hook   func(pass int64) nn.HookFunc
	passes atomic.Int64
}

func (*failingDetector) Name() string { return "failing" }

func (d *failingDetector) CalibrationHooks() (*nn.HookSet, func()) {
	if d.hook == nil {
		return nil, nil
	}
	h := nn.NewHookSet()
	h.PostForward(nn.AllLayers(), d.hook(d.passes.Add(1)))
	return h, func() {}
}

func (d *failingDetector) FinishCalibration() error { return d.err }

func (*failingDetector) Arm(*detect.Recorder, detect.Policy) *nn.HookSet { return nil }

func panicHook(nn.LayerInfo, *goldeneye.Tensor) *goldeneye.Tensor {
	panic("calibration hook corrupted")
}

func passHook(_ nn.LayerInfo, t *goldeneye.Tensor) *goldeneye.Tensor { return t }

// A calibration that fails — an error or a panic in any worker's share of
// the setup, or a cancellation while it runs — reaches every worker: the
// run returns the failure (or, cancelled, the interrupted report)
// promptly (RunCampaignParallel returns only once every worker goroutine
// has exited), and every worker's converted weights are restored.
func TestCalibrationFailure(t *testing.T) {
	ref, pool := loadSim(t, "mlp")
	const samples = 8 // one calibration slice per sample at batch 1
	x, y := pool.subset(samples)
	pristine := append([]float32(nil), ref.Model().Params()[0].Value.Data()...)
	errBoom := errors.New("calibration sealed nothing")
	calibrationFailed := func(rep *goldeneye.CampaignReport, err error) bool {
		return rep == nil && err != nil && strings.Contains(err.Error(), "calibration panicked")
	}
	for _, tc := range []struct {
		name string
		det  func(cancel context.CancelFunc) *failingDetector
		want func(*goldeneye.CampaignReport, error) bool
	}{
		{"finish_error", func(context.CancelFunc) *failingDetector { return &failingDetector{err: errBoom} },
			func(rep *goldeneye.CampaignReport, err error) bool { return rep == nil && errors.Is(err, errBoom) }},
		{"hook_panic", func(context.CancelFunc) *failingDetector {
			return &failingDetector{hook: func(int64) nn.HookFunc { return panicHook }}
		}, calibrationFailed},
		// Only the last pass handed out panics, and only once the first
		// pass's worker is parked inside its forward pass: a helper worker
		// runs it.
		{"last_slice_panic", func(context.CancelFunc) *failingDetector {
			lastHanded := make(chan struct{})
			return &failingDetector{hook: func(pass int64) nn.HookFunc {
				switch pass {
				case 1:
					return func(info nn.LayerInfo, t *goldeneye.Tensor) *goldeneye.Tensor {
						select {
						case <-lastHanded:
						case <-time.After(time.Minute):
						}
						return t
					}
				case samples:
					close(lastHanded)
					return panicHook
				}
				return passHook
			}}
		}, calibrationFailed},
		{"cancel", func(cancel context.CancelFunc) *failingDetector {
			return &failingDetector{hook: func(pass int64) nn.HookFunc {
				if pass == 1 {
					cancel()
				}
				return passHook
			}}
		}, func(rep *goldeneye.CampaignReport, err error) bool {
			return rep != nil && rep.Interrupted && rep.Injections == 0 && errors.Is(err, context.Canceled)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			det := tc.det(cancel)
			var (
				mu      sync.Mutex
				sims    []*goldeneye.Simulator
				weights [][][]float32
			)
			build := func() (*goldeneye.Simulator, error) {
				sim, err := mlpBuilder(t)()
				if err != nil {
					return nil, err
				}
				var w [][]float32
				for _, p := range sim.Model().Params() {
					w = append(w, append([]float32(nil), p.Value.Data()...))
				}
				mu.Lock()
				sims, weights = append(sims, sim), append(weights, w)
				mu.Unlock()
				return sim, nil
			}
			var converted atomic.Bool
			cfg := goldeneye.CampaignConfig{
				Format:     numfmt.INT8(),
				Site:       goldeneye.SiteValue,
				Target:     goldeneye.TargetNeuron,
				Layer:      ref.InjectableLayers()[1],
				Injections: 30,
				Seed:       5,
				Pool:       &goldeneye.EvalPool{X: x, Y: y},
				Assignment: &goldeneye.FormatAssignment{Params: numfmt.INT8()},
				Detectors: []detect.Spec{{New: func(tg detect.Target) (detect.Detector, error) {
					for i, v := range tg.Model.Params()[0].Value.Data() {
						if v != pristine[i] {
							converted.Store(true)
						}
					}
					return det, nil
				}}},
			}
			type result struct {
				rep *goldeneye.CampaignReport
				err error
			}
			done := make(chan result, 1)
			go func() {
				rep, err := goldeneye.RunCampaignParallel(ctx, cfg, 3, build)
				done <- result{rep, err}
			}()
			var res result
			select {
			case res = <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("failed calibration left the campaign hanging")
			}
			if !tc.want(res.rep, res.err) {
				t.Fatalf("got report %+v and error %v, want the calibration failure", res.rep, res.err)
			}
			if !converted.Load() {
				t.Fatal("calibration ran on unconverted weights; the restore check below would prove nothing")
			}
			if len(sims) != 3 {
				t.Fatalf("built %d worker simulators, want 3", len(sims))
			}
			for w, sim := range sims {
				for i, p := range sim.Model().Params() {
					for j, v := range p.Value.Data() {
						if v != weights[w][i][j] {
							t.Fatalf("worker simulator %d: parameter %d[%d] = %v after the run, want %v", w, i, j, v, weights[w][i][j])
						}
					}
				}
			}
		})
	}
}
