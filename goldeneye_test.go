package goldeneye_test

import (
	"context"
	"testing"

	"goldeneye"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/zoo"
)

// loadedSim caches the pre-trained simulator across tests in this package;
// the zoo's disk cache makes the underlying load cheap after the first run.
func loadSim(t *testing.T, name string) (*goldeneye.Simulator, *testPool) {
	t.Helper()
	model, ds, err := zoo.Pretrained(name)
	if err != nil {
		t.Fatalf("zoo: %v", err)
	}
	sim := goldeneye.Wrap(model, ds.ValX.Slice(0, 1))
	return sim, &testPool{x: ds.ValX, y: ds.ValY}
}

type testPool struct {
	x *goldeneye.Tensor
	y []int
}

func (p *testPool) subset(n int) (*goldeneye.Tensor, []int) {
	return p.x.Slice(0, n), p.y[:n]
}

func TestWrapEnumeratesLayers(t *testing.T) {
	sim, _ := loadSim(t, "mlp")
	layers := sim.Layers()
	if len(layers) == 0 {
		t.Fatal("no layers traced")
	}
	for _, l := range layers {
		if sim.LayerOutputSize(l.Index) <= 0 {
			t.Fatalf("layer %v has no output size", l)
		}
	}
	if len(sim.InjectableLayers()) < 3 {
		t.Fatalf("mlp should expose its 3 linear layers, got %v", sim.InjectableLayers())
	}
	if len(sim.WeightedLayers()) < 3 {
		t.Fatalf("weighted layers: %v", sim.WeightedLayers())
	}
}

func TestFP32EmulationMatchesNative(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(100)
	native := sim.Evaluate(x, y, 25, goldeneye.EmulationConfig{})
	emulated := sim.Evaluate(x, y, 25, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
		Default: goldeneye.RoleFormats{Activations: numfmt.FP32(true)}, Params: numfmt.FP32(true),
	}})
	if native != emulated {
		t.Fatalf("FP32 emulation changed accuracy: %v vs %v", native, emulated)
	}
	if native < 0.6 {
		t.Fatalf("implausible baseline accuracy %v", native)
	}
}

func TestEvaluateRestoresWeights(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(50)
	before := append([]float32(nil), sim.Model().Params()[0].Value.Data()...)
	f := numfmt.NewFP(2, 1, true)
	sim.Evaluate(x, y, 25, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
		Default: goldeneye.RoleFormats{Activations: f}, Params: f,
	}})
	after := sim.Model().Params()[0].Value.Data()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Evaluate leaked quantized weights")
		}
	}
}

func TestAggressiveQuantizationDegradesAccuracy(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(100)
	native := sim.Evaluate(x, y, 25, goldeneye.EmulationConfig{})
	f := numfmt.NewFP(2, 1, true)
	crushed := sim.Evaluate(x, y, 25, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
		Default: goldeneye.RoleFormats{Activations: f}, Params: f,
	}})
	if crushed >= native {
		t.Fatalf("4-bit FP should hurt accuracy: native %v, crushed %v", native, crushed)
	}
}

func TestCampaignDeterministicPerSeed(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(16)
	run := func(seed uint64) *goldeneye.CampaignReport {
		rep, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
			Format:     numfmt.FP16(true),
			Site:       goldeneye.SiteValue,
			Target:     goldeneye.TargetNeuron,
			Layer:      sim.InjectableLayers()[1],
			Injections: 50,
			Seed:       seed,
			Pool:       &goldeneye.EvalPool{X: x, Y: y},
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
			KeepTrace:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(1)
	if a.MeanDeltaLoss() != b.MeanDeltaLoss() || a.Mismatches != b.Mismatches {
		t.Fatal("campaign not deterministic for equal seeds")
	}
	for i := range a.Trace {
		if a.Trace[i].Fault != b.Trace[i].Fault {
			t.Fatal("fault sequences differ for equal seeds")
		}
	}
	c := run(2)
	same := true
	for i := range a.Trace {
		if a.Trace[i].Fault != c.Trace[i].Fault {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestCampaignMetadataOnPlainFormatFails(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	_, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Site:       goldeneye.SiteMetadata,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 5,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
	})
	if err == nil {
		t.Fatal("metadata campaign on FP must fail")
	}
}

func TestCampaignValidation(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	base := goldeneye.CampaignConfig{
		Format: numfmt.FP16(true), Site: goldeneye.SiteValue,
		Target: goldeneye.TargetNeuron, Layer: sim.InjectableLayers()[0],
		Injections: 5, Pool: &goldeneye.EvalPool{X: x, Y: y},
	}

	noFormat := base
	noFormat.Format = nil
	if _, err := sim.RunCampaign(context.Background(), noFormat); err == nil {
		t.Error("nil format accepted")
	}
	noInj := base
	noInj.Injections = 0
	if _, err := sim.RunCampaign(context.Background(), noInj); err == nil {
		t.Error("zero injections accepted")
	}
	badLayer := base
	badLayer.Layer = 9999
	if _, err := sim.RunCampaign(context.Background(), badLayer); err == nil {
		t.Error("bogus layer accepted")
	}
	badPool := base
	badPool.Pool = &goldeneye.EvalPool{X: x, Y: y[:4]}
	if _, err := sim.RunCampaign(context.Background(), badPool); err == nil {
		t.Error("mismatched pool accepted")
	}
	recoveryOnly := base
	recoveryOnly.Recovery = goldeneye.RecoverClamp
	if _, err := sim.RunCampaign(context.Background(), recoveryOnly); err == nil {
		t.Error("recovery policy without detectors accepted")
	}
}

func TestBFPMetadataFaultsWorseThanValueFaults(t *testing.T) {
	// The central resiliency finding of Fig 7: a single bit flip in BFP's
	// shared exponent behaves as a multi-bit flip across the tensor and
	// dominates data-value flips.
	sim, pool := loadSim(t, "resnet_s")
	x, y := pool.subset(24)
	layer := sim.InjectableLayers()[2]
	campaign := func(meta bool) float64 {
		site := goldeneye.SiteValue
		if meta {
			site = goldeneye.SiteMetadata
		}
		rep, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
			Format:     numfmt.BFPe5m5(),
			Site:       site,
			Target:     goldeneye.TargetNeuron,
			Layer:      layer,
			Injections: 120,
			Seed:       11,
			Pool:       &goldeneye.EvalPool{X: x, Y: y},
			UseRanger:  true,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.BFPe5m5()}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanDeltaLoss()
	}
	value, meta := campaign(false), campaign(true)
	if meta <= value*2 {
		t.Fatalf("metadata ΔLoss (%v) should dominate value ΔLoss (%v)", meta, value)
	}
}

func TestWeightTargetCampaignRuns(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(16)
	before := append([]float32(nil), sim.Model().Params()[0].Value.Data()...)
	rep, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetWeight,
		Layer:      sim.WeightedLayers()[0],
		Injections: 40,
		Seed:       3,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injections != 40 {
		t.Fatalf("ran %d injections, want 40", rep.Injections)
	}
	after := sim.Model().Params()[0].Value.Data()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("weight campaign leaked corrupted weights")
		}
	}
}

func TestRangerSuppressesNonFinite(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(16)
	run := func(useRanger bool) *goldeneye.CampaignReport {
		rep, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
			Format:     numfmt.FP16(true),
			Site:       goldeneye.SiteValue,
			Target:     goldeneye.TargetNeuron,
			Layer:      sim.InjectableLayers()[0],
			Injections: 200,
			Seed:       5,
			Pool:       &goldeneye.EvalPool{X: x, Y: y},
			UseRanger:  useRanger,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	with, without := run(true), run(false)
	if with.NonFinite > 0 {
		t.Fatalf("ranger left %d non-finite outcomes", with.NonFinite)
	}
	if with.MeanDeltaLoss() > without.MeanDeltaLoss() {
		t.Fatalf("ranger increased mean ΔLoss: %v vs %v",
			with.MeanDeltaLoss(), without.MeanDeltaLoss())
	}
}

func TestMultiBitCampaign(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(16)
	run := func(flips int) *goldeneye.CampaignReport {
		rep, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
			Format:            numfmt.FP16(true),
			Site:              goldeneye.SiteValue,
			Target:            goldeneye.TargetNeuron,
			Layer:             sim.InjectableLayers()[1],
			Injections:        150,
			FlipsPerInjection: flips,
			Seed:              9,
			Pool:              &goldeneye.EvalPool{X: x, Y: y},
			UseRanger:         true,
			Assignment:        &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
			KeepTrace:         true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	single, triple := run(1), run(3)
	if len(single.Trace[0].Extra) != 0 {
		t.Fatalf("single-bit trace carries extra flips: %v", single.Trace[0])
	}
	if len(triple.Trace[0].Extra) != 2 {
		t.Fatalf("multi-bit trace missing extra flips: %v", triple.Trace[0])
	}
	if triple.Injections != 150 {
		t.Fatalf("ran %d injections", triple.Injections)
	}
	// Re-running with the same seed must reproduce the multi-flip faults.
	again := run(3)
	for i := range triple.Trace {
		if triple.Trace[i].Fault != again.Trace[i].Fault ||
			len(triple.Trace[i].Extra) != len(again.Trace[i].Extra) {
			t.Fatal("multi-bit campaign not deterministic")
		}
	}
}

func TestMultiBitWeightCampaignRestores(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	before := append([]float32(nil), sim.Model().Params()[0].Value.Data()...)
	_, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
		Format:            numfmt.FP16(true),
		Site:              goldeneye.SiteValue,
		Target:            goldeneye.TargetWeight,
		Layer:             sim.WeightedLayers()[0],
		Injections:        30,
		FlipsPerInjection: 4,
		Seed:              13,
		Pool:              &goldeneye.EvalPool{X: x, Y: y},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := sim.Model().Params()[0].Value.Data()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("multi-bit weight campaign leaked corruption")
		}
	}
}

func TestRunDSEFindsLowWidthPoint(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(100)
	res := sim.RunDSE(x, y, 25, goldeneye.DSEConfig{
		Family:    goldeneye.FamilyFP,
		Threshold: 0.02,
	})
	if len(res.Nodes) == 0 || len(res.Nodes) > 16 {
		t.Fatalf("visited %d nodes", len(res.Nodes))
	}
	if res.Best == nil {
		t.Fatal("no acceptable design point found")
	}
	if res.Best.Point.Bits >= 32 {
		t.Fatalf("heuristic failed to shorten width: best %v", res.Best.Point)
	}
}

func TestTable1RowsExported(t *testing.T) {
	rows := goldeneye.Table1Rows()
	if len(rows) != 12 {
		t.Fatalf("Table1Rows returned %d rows, want 12", len(rows))
	}
}

// Every Emulate an evaluation under the emerging formats runs is served by
// a fused kernel: none takes the generic path, and none is left to a
// bespoke per-element loop (emulate − fused − generic stays 0).
func TestEvaluatePoolEmergingFormatsRunFusedKernels(t *testing.T) {
	sim, pool := loadSim(t, "resnet_s")
	x, y := pool.subset(16)
	p, err := goldeneye.NewEvalPool(x, y, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []numfmt.Format{numfmt.Posit8(), numfmt.LNS8(), numfmt.NF4()} {
		before := numfmt.ReadOpCounts()
		sim.EvaluatePool(p, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
			Default: goldeneye.RoleFormats{Weights: f, Activations: f},
		}})
		after := numfmt.ReadOpCounts()
		emulate := after.Emulate - before.Emulate
		fused := after.FusedKernels - before.FusedKernels
		generic := after.GenericKernels - before.GenericKernels
		if emulate == 0 || generic != 0 || emulate-fused-generic != 0 {
			t.Errorf("%s: %d emulate calls, %d fused and %d generic kernels; want every call fused",
				f.Name(), emulate, fused, generic)
		}
	}
}
