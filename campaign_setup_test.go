package goldeneye

import (
	"maps"
	"math"
	"testing"

	"goldeneye/internal/detect"
)

// calibrationValues is everything a calibration hands the injection loop,
// captured for a bit-level comparison.
type calibrationValues struct {
	profile, ranger *detect.Ranger
	abft            *detect.ABFT
	cal             *calibration
}

// calibrateSplit builds cfg's calibration with workers workers of model,
// all setting up together, and captures the pipeline's ranger and ABFT.
func calibrateSplit(t *testing.T, model string, cfg CampaignConfig, workers int) calibrationValues {
	t.Helper()
	var v calibrationValues
	cfg.Detectors = []detect.Spec{
		{Kind: "ranger", New: func(detect.Target) (detect.Detector, error) {
			r, err := detect.NewRanger("")
			v.ranger = r
			return r, err
		}},
		{Kind: "abft", New: func(tg detect.Target) (detect.Detector, error) {
			a, err := detect.NewABFT(tg, 0)
			v.abft = a
			return a, err
		}},
		{Kind: "dmr"},
	}
	sims := make([]*Simulator, workers)
	for w := range sims {
		sim, err := prefixBuilder(model, false)()
		if err != nil {
			t.Fatal(err)
		}
		sims[w] = sim
	}
	cal, runners, err := setupAt(cfg, sims)
	for _, r := range runners {
		r.close()
	}
	if err != nil {
		t.Fatalf("K=%d: %v", workers, err)
	}
	v.cal, v.profile = cal, cal.ranger
	return v
}

// The calibration is bit-identical whatever the number of workers that
// split its sweeps: ranger bounds (profile and pipeline), ABFT tolerances,
// clean references and false-positive counts at K = 2, 3, 4 equal K = 1's,
// compared as bits so a flipped signed zero fails.
func TestCalibrationSplitBitIdentical(t *testing.T) {
	ds := prefixDataset()
	const model, samples = "resnet_s", 40
	probe, err := prefixBuilder(model, false)()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"a:bfp_e5m5", "a:int8"} {
		t.Run(format, func(t *testing.T) {
			asg, err := ParseFormatMap(format)
			if err != nil {
				t.Fatal(err)
			}
			cfg := CampaignConfig{
				Assignment: asg,
				Site:       SiteValue,
				Target:     TargetNeuron,
				Layer:      probe.InjectableLayers()[1],
				Injections: 8,
				Seed:       3,
				Pool:       &EvalPool{X: ds.ValX.Slice(0, samples), Y: ds.ValY[:samples]},
				BatchSize:  4,
				UseRanger:  true,
				Recovery:   RecoverReexecute,
			}
			want := calibrateSplit(t, model, cfg, 1)
			for workers := 2; workers <= 4; workers++ {
				got := calibrateSplit(t, model, cfg, workers)
				for _, l := range probe.Layers() {
					for _, rr := range [][2]*detect.Ranger{{got.profile, want.profile}, {got.ranger, want.ranger}} {
						glo, ghi, gok := rr[0].Bounds(l.Index)
						wlo, whi, wok := rr[1].Bounds(l.Index)
						if gok != wok || math.Float32bits(glo) != math.Float32bits(wlo) || math.Float32bits(ghi) != math.Float32bits(whi) {
							t.Fatalf("K=%d layer %d: ranger bounds [%v, %v], K=1 [%v, %v]", workers, l.Index, glo, ghi, wlo, whi)
						}
					}
					if g, w := got.abft.Tolerance(l.Index), want.abft.Tolerance(l.Index); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("K=%d layer %d: ABFT tolerance %v, K=1 %v", workers, l.Index, g, w)
					}
				}
				for s := range want.cal.cleanPred {
					if got.cal.cleanPred[s] != want.cal.cleanPred[s] ||
						math.Float64bits(got.cal.cleanLoss[s]) != math.Float64bits(want.cal.cleanLoss[s]) {
						t.Fatalf("K=%d sample %d: clean reference (%d, %v), K=1 (%d, %v)", workers, s,
							got.cal.cleanPred[s], got.cal.cleanLoss[s], want.cal.cleanPred[s], want.cal.cleanLoss[s])
					}
				}
				if !maps.Equal(got.cal.fpStats, want.cal.fpStats) {
					t.Fatalf("K=%d: false positives %v, K=1 %v", workers, got.cal.fpStats, want.cal.fpStats)
				}
			}
		})
	}
}
