package goldeneye_test

import (
	"context"
	"math"
	"testing"

	"goldeneye"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/zoo"
)

func mlpBuilder(t *testing.T) func() (*goldeneye.Simulator, error) {
	t.Helper()
	return func() (*goldeneye.Simulator, error) {
		model, ds, err := zoo.Pretrained("mlp")
		if err != nil {
			return nil, err
		}
		return goldeneye.Wrap(model, ds.ValX.Slice(0, 1)), nil
	}
}

func TestParallelCampaignMatchesSerial(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(16)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.BFPe5m5(),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: 120,
		Seed:       17,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		UseRanger:  true,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.BFPe5m5()}},
		KeepTrace:  true,
	}
	serial, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := goldeneye.RunCampaignParallel(context.Background(), cfg, 4, mlpBuilder(t))
	if err != nil {
		t.Fatal(err)
	}

	if parallel.Injections != serial.Injections ||
		parallel.Mismatches != serial.Mismatches ||
		parallel.NonFinite != serial.NonFinite {
		t.Fatalf("counts differ: serial %+v, parallel %+v",
			serial.CampaignResult, parallel.CampaignResult)
	}
	if math.Abs(parallel.MeanDeltaLoss()-serial.MeanDeltaLoss()) > 1e-9 {
		t.Fatalf("mean ΔLoss differs: %v vs %v",
			parallel.MeanDeltaLoss(), serial.MeanDeltaLoss())
	}
	if math.Abs(parallel.DeltaLoss.Variance()-serial.DeltaLoss.Variance()) > 1e-6 {
		t.Fatalf("variance differs: %v vs %v",
			parallel.DeltaLoss.Variance(), serial.DeltaLoss.Variance())
	}
	// The interleaved traces must carry identical faults in order.
	if len(parallel.Trace) != len(serial.Trace) {
		t.Fatalf("trace lengths differ")
	}
	for i := range serial.Trace {
		if serial.Trace[i].Fault != parallel.Trace[i].Fault ||
			serial.Trace[i].Sample != parallel.Trace[i].Sample ||
			serial.Trace[i].Mismatch != parallel.Trace[i].Mismatch {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, serial.Trace[i], parallel.Trace[i])
		}
	}
}

func TestParallelCampaignSingleWorkerFallsBack(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 20,
		Seed:       5,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
	}
	rep, err := goldeneye.RunCampaignParallel(context.Background(), cfg, 1, mlpBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injections != 20 {
		t.Fatalf("ran %d injections", rep.Injections)
	}
}

func TestParallelCampaignPropagatesBuildError(t *testing.T) {
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Injections: 10,
	}
	_, err := goldeneye.RunCampaignParallel(context.Background(), cfg, 4, func() (*goldeneye.Simulator, error) {
		return nil, errBoom
	})
	if err == nil {
		t.Fatal("expected build error")
	}
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }

func TestParallelWeightCampaign(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetWeight,
		Layer:      sim.WeightedLayers()[0],
		Injections: 40,
		Seed:       3,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
	}
	serial, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := goldeneye.RunCampaignParallel(context.Background(), cfg, 3, mlpBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Mismatches != parallel.Mismatches {
		t.Fatalf("weight-campaign mismatches differ: %d vs %d",
			serial.Mismatches, parallel.Mismatches)
	}
}
