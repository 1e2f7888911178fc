package goldeneye

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"goldeneye/internal/detect"
	"goldeneye/internal/nn"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// calibrationValues is everything a calibration hands the injection loop,
// captured for a bit-level comparison.
type calibrationValues struct {
	profile, ranger *detect.Ranger
	abft            *detect.ABFT
	cal             *calibration
}

// calibrateSplit builds cfg's calibration with workers simulators from
// build, all setting up together. With armed it adds a ranger, ABFT and DMR
// pipeline and captures its ranger and ABFT.
func calibrateSplit(t *testing.T, build func() (*Simulator, error), cfg CampaignConfig, workers int, armed bool) calibrationValues {
	t.Helper()
	var v calibrationValues
	if armed {
		cfg.Detectors = []detect.Spec{
			{Kind: "ranger", New: func(detect.Target) (detect.Detector, error) {
				v.ranger = detect.NewRanger()
				return v.ranger, nil
			}},
			{Kind: "abft", New: func(tg detect.Target) (detect.Detector, error) {
				a, err := detect.NewABFT(tg, 0)
				v.abft = a
				return a, err
			}},
			{Kind: "dmr"},
		}
	}
	sims := make([]*Simulator, workers)
	for w := range sims {
		sim, err := build()
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
// clean references, false-positive counts, the cut table and the full-pass
// marks at K = 1, 2, 3, 4 equal a reference calibration's, compared as bits
// so a flipped signed zero fails.
func TestCalibrationSplitBitIdentical(t *testing.T) {
	ds := prefixDataset()
	const samples = 40
	build := prefixBuilder("resnet_s", false)
	probe, err := build()
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
			checkCalibrationSplit(t, build, cfg, calibrateSplit(t, build, cfg, 1, true))
		})
	}

	// A late fault layer gets a cut table, which the armed clean sweep fills
	// with and without a pipeline: UseRanger alone, as the fi-resnet
	// benchmark runs, stops each slice at the cut.
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("cuts/armed=%v", armed), func(t *testing.T) {
			asg, err := ParseFormatMap("a:bfp_e5m5")
			if err != nil {
				t.Fatal(err)
			}
			inj := probe.InjectableLayers()
			cfg := CampaignConfig{
				Assignment: asg,
				Site:       SiteValue,
				Target:     TargetNeuron,
				Layer:      inj[len(inj)-2],
				Injections: 8,
				Seed:       3,
				Pool:       &EvalPool{X: ds.ValX.Slice(0, samples), Y: ds.ValY[:samples]},
				BatchSize:  4,
				UseRanger:  true,
			}
			want := calibrateSplit(t, build, cfg, 1, armed)
			if want.cal.cuts == nil || want.cal.block == 0 {
				t.Fatal("a fault layer past top-level child 0 must get a cut table")
			}
			checkCalibrationSplit(t, build, cfg, want)
		})
	}

	// A pool whose input layer's minimum ties at +0 in its first reference
	// slice and at −0 in its second. Only folding the slices in pool order
	// keeps the +0 that one pass over the whole pool — a single slice, so
	// nothing to fold — finds first.
	t.Run("signed_zero_tie", func(t *testing.T) {
		build := func() (*Simulator, error) {
			r := rng.New(5)
			m := nn.NewSequential("tie", nn.NewFlatten("in"), nn.NewLinear("fc1", 2, 4, r),
				nn.NewReLU("relu"), nn.NewLinear("fc2", 4, 2, r))
			return NewSimulator(m, tensor.New(1, 2))
		}
		negZero := float32(math.Copysign(0, -1))
		x := tensor.New(8, 2)
		for i := 0; i < 8; i++ {
			if i >= 4 {
				x.Set(negZero, i, 0)
			}
			x.Set(1, i, 1)
		}
		asg, err := ParseFormatMap("a:fp16")
		if err != nil {
			t.Fatal(err)
		}
		cfg := CampaignConfig{
			Assignment: asg,
			Site:       SiteValue,
			Target:     TargetNeuron,
			Layer:      1,
			Injections: 8,
			Seed:       3,
			Pool:       &EvalPool{X: x, Y: []int{0, 1, 0, 1, 0, 1, 0, 1}},
			BatchSize:  4,
			UseRanger:  true,
			Recovery:   RecoverReexecute,
		}
		whole := cfg
		whole.BatchSize = 8
		want := calibrateSplit(t, build, whole, 1, true)
		neg := cfg
		neg.Pool = &EvalPool{X: x.Slice(4, 8), Y: cfg.Pool.Y[4:]}
		for _, tc := range []struct {
			v    calibrationValues
			want float32
		}{{want, 0}, {calibrateSplit(t, build, neg, 1, true), negZero}} {
			if lo, _, _ := tc.v.ranger.Bounds(0); math.Float32bits(lo) != math.Float32bits(tc.want) {
				t.Fatalf("input layer minimum has bits %#x, want %#x: the pool no longer ties at ±0",
					math.Float32bits(lo), math.Float32bits(tc.want))
			}
		}
		checkCalibrationSplit(t, build, cfg, want)
	})
}

// checkCalibrationSplit requires cfg's calibration at K = 1 to 4 workers to
// equal want bit for bit.
func checkCalibrationSplit(t *testing.T, build func() (*Simulator, error), cfg CampaignConfig, want calibrationValues) {
	t.Helper()
	probe, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 4; workers++ {
		got := calibrateSplit(t, build, cfg, workers, want.abft != nil)
		for _, l := range probe.Layers() {
			for _, rr := range [][2]*detect.Ranger{{got.profile, want.profile}, {got.ranger, want.ranger}} {
				if rr[1] == nil {
					continue // no pipeline
				}
				glo, ghi, gok := rr[0].Bounds(l.Index)
				wlo, whi, wok := rr[1].Bounds(l.Index)
				if gok != wok || math.Float32bits(glo) != math.Float32bits(wlo) || math.Float32bits(ghi) != math.Float32bits(whi) {
					t.Fatalf("K=%d layer %d: ranger bounds [%v, %v], want [%v, %v]", workers, l.Index, glo, ghi, wlo, whi)
				}
			}
			if want.abft == nil {
				continue
			}
			if g, w := got.abft.Tolerance(l.Index), want.abft.Tolerance(l.Index); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("K=%d layer %d: ABFT tolerance %v, want %v", workers, l.Index, g, w)
			}
		}
		for s := range want.cal.cleanPred {
			if got.cal.cleanPred[s] != want.cal.cleanPred[s] ||
				math.Float64bits(got.cal.cleanLoss[s]) != math.Float64bits(want.cal.cleanLoss[s]) {
				t.Fatalf("K=%d sample %d: clean reference (%d, %v), want (%d, %v)", workers, s,
					got.cal.cleanPred[s], got.cal.cleanLoss[s], want.cal.cleanPred[s], want.cal.cleanLoss[s])
			}
		}
		if !maps.Equal(got.cal.fpStats, want.cal.fpStats) {
			t.Fatalf("K=%d: false positives %v, want %v", workers, got.cal.fpStats, want.cal.fpStats)
		}
		if !slices.Equal(got.cal.fullPass, want.cal.fullPass) {
			t.Fatalf("K=%d: full-pass marks %v, want %v", workers, got.cal.fullPass, want.cal.fullPass)
		}
		if (got.cal.cuts == nil) != (want.cal.cuts == nil) {
			t.Fatalf("K=%d: cut table %v, want %v", workers, got.cal.cuts != nil, want.cal.cuts != nil)
		}
		if want.cal.cuts != nil {
			if !slices.Equal(got.cal.cuts.Shape(), want.cal.cuts.Shape()) {
				t.Fatalf("K=%d: cut table shape %v, want %v", workers, got.cal.cuts.Shape(), want.cal.cuts.Shape())
			}
			for i, w := range want.cal.cuts.Data() {
				if g := got.cal.cuts.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("K=%d: cut table element %d is %v, want %v", workers, i, g, w)
				}
			}
		}
	}
}
