package detect

import (
	"math"
	"sync"
	"testing"

	"goldeneye/internal/nn"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// foldSlices calibrates d with one pass per slice of x (batch samples
// each) through model, folds the passes in slice order and seals d.
func foldSlices(t *testing.T, d Detector, model nn.Module, x *tensor.Tensor, batch int) {
	t.Helper()
	for lo := 0; lo < x.Dim(0); lo += batch {
		hooks, fold := d.CalibrationHooks()
		nn.Forward(nn.NewContext(hooks), model, x.Slice(lo, min(lo+batch, x.Dim(0))))
		fold()
	}
	if err := d.FinishCalibration(); err != nil {
		t.Fatal(err)
	}
}

// Ranger bounds keep the first of −0 and +0 they see. Folding a pass that
// saw +0 and then one that saw −0 keeps +0, exactly as one pass over both
// does, and the reverse order keeps −0.
func TestRangerFoldKeepsFirstSignedZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	pos := tensor.FromSlice([]float32{0, 1}, 1, 2)
	neg := tensor.FromSlice([]float32{negZero, 1}, 1, 2)
	for _, tc := range []struct {
		name   string
		first  *tensor.Tensor
		second *tensor.Tensor
		want   float32
	}{
		{"pos_then_neg", pos, neg, 0},
		{"neg_then_pos", neg, pos, negZero},
	} {
		t.Run(tc.name, func(t *testing.T) {
			folded := NewRanger()
			for _, x := range []*tensor.Tensor{tc.first, tc.second} {
				hooks, fold := folded.CalibrationHooks()
				runHooks(hooks, x)
				fold()
			}
			serial := NewRanger()
			hooks, fold := serial.CalibrationHooks()
			runHooks(hooks, tc.first)
			runHooks(hooks, tc.second)
			fold()
			lo, hi, ok := folded.Bounds(0)
			slo, shi, _ := serial.Bounds(0)
			if !ok || math.Float32bits(lo) != math.Float32bits(tc.want) {
				t.Fatalf("folded lo = %v (bits %#x), want bits %#x", lo, math.Float32bits(lo), math.Float32bits(tc.want))
			}
			if math.Float32bits(lo) != math.Float32bits(slo) || math.Float32bits(hi) != math.Float32bits(shi) {
				t.Fatalf("folded bounds [%v, %v] differ from one pass's [%v, %v]", lo, hi, slo, shi)
			}
		})
	}
}

// ABFT tolerances folded from one pass per slice equal those of one pass
// over the whole pool.
func TestABFTFoldMatchesSerial(t *testing.T) {
	tgt := tinyTarget()
	x := tensor.Randn(rng.New(6), 1, 7, 4)
	serial, err := NewABFT(tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	calibrate(t, serial, tgt.Model, x)
	folded, err := NewABFT(tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	foldSlices(t, folded, tgt.Model, x, 2)
	for idx := range serial.checks {
		if got, want := folded.Tolerance(idx), serial.Tolerance(idx); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("layer %d: folded tolerance %v, one pass %v", idx, got, want)
		}
	}
}

// Two workers calibrate one pipeline at once, each with its own hooks on
// its own copy of the model; folded in slice order, the bounds and
// tolerances equal a serial calibration's. Run under -race by make check.
func TestCalibrationConcurrentPasses(t *testing.T) {
	x := tensor.Randn(rng.New(9), 1, 8, 4)
	build := func() *Pipeline {
		p, err := Build([]Spec{{Kind: "ranger"}, {Kind: "abft"}}, PolicyNone, tinyTarget())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	serial := build()
	for _, d := range serial.detectors {
		calibrate(t, d, tinyTarget().Model, x)
	}

	shared := build()
	const workers = 2
	folds := make([]func(), workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			model := tinyTarget().Model // a worker's own, identical model
			hooks, fold := shared.CalibrationHooks()
			ctx := nn.NewContext(hooks)
			for i := 0; i < 3; i++ {
				nn.Forward(ctx, model, x.Slice(w*4, (w+1)*4))
			}
			folds[w] = fold
		}(w)
	}
	wg.Wait()
	for _, fold := range folds {
		fold()
	}
	if err := shared.FinishCalibration(); err != nil {
		t.Fatal(err)
	}

	want, got := serial.detectors[0].(*Ranger), shared.detectors[0].(*Ranger)
	for idx := range want.lo {
		wlo, whi, _ := want.Bounds(idx)
		glo, ghi, ok := got.Bounds(idx)
		if !ok || math.Float32bits(glo) != math.Float32bits(wlo) || math.Float32bits(ghi) != math.Float32bits(whi) {
			t.Fatalf("layer %d: concurrent bounds [%v, %v], serial [%v, %v]", idx, glo, ghi, wlo, whi)
		}
	}
	wa, ga := serial.detectors[1].(*ABFT), shared.detectors[1].(*ABFT)
	for idx := range wa.checks {
		if math.Float64bits(ga.Tolerance(idx)) != math.Float64bits(wa.Tolerance(idx)) {
			t.Fatalf("layer %d: concurrent tolerance %v, serial %v", idx, ga.Tolerance(idx), wa.Tolerance(idx))
		}
	}
}
