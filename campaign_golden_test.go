package goldeneye_test

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"goldeneye"
	"goldeneye/internal/metrics"
	"goldeneye/internal/numfmt"
)

// goldenRecord pins one pre-detector campaign's full report: the raw
// aggregate (bit-exact Welford state), the Detected/Aborted counts, and an
// FNV-64a digest of the trace. testdata/campaign_golden.json was generated
// before the detection subsystem landed; these tests are the regression
// gate that campaigns with CampaignConfig.Detectors empty stay bit-identical
// to pre-detector behaviour on both the serial and batched paths.
type goldenRecord struct {
	Name     string                 `json:"name"`
	Result   metrics.CampaignResult `json:"result"`
	Detected int                    `json:"detected"`
	Aborted  int                    `json:"aborted"`
	TraceFNV uint64                 `json:"trace_fnv"`
}

// goldenTraceDigest must match the formula the golden file was generated
// with, field for field.
func goldenTraceDigest(trace []goldeneye.InjectionOutcome) uint64 {
	h := fnv.New64a()
	for _, o := range trace {
		fmt.Fprintf(h, "%v|%d|%d|%t|%016x|%t|%t|%t\n",
			o.Fault, len(o.Extra), o.Sample, o.Mismatch,
			math.Float64bits(o.DeltaLoss), o.NonFinite, o.Detected, o.Aborted)
	}
	return h.Sum64()
}

// goldenConfigs rebuilds the exact campaign configurations the golden file
// was generated from (zoo "mlp", first 16 validation samples).
func goldenConfigs(sim *goldeneye.Simulator, x *goldeneye.Tensor, y []int) map[string]goldeneye.CampaignConfig {
	pool := func() *goldeneye.EvalPool { return &goldeneye.EvalPool{X: x, Y: y} }
	layers := sim.InjectableLayers()
	weighted := sim.WeightedLayers()
	fp16, bfp := numfmt.FP16(true), numfmt.BFPe5m5()
	return map[string]goldeneye.CampaignConfig{
		"serial_fp16_value_neuron": {
			Format: fp16, Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
			Layer: layers[1], Injections: 60, Seed: 7, Pool: pool(),
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: fp16}}, KeepTrace: true,
		},
		"batched_fp16_value_neuron": {
			Format: fp16, Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
			Layer: layers[1], Injections: 60, Seed: 7, Pool: pool(), BatchSize: 8,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: fp16}}, KeepTrace: true,
		},
		"serial_fp16_ranger": {
			Format: fp16, Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
			Layer: layers[0], Injections: 60, Seed: 5, Pool: pool(),
			UseRanger: true, KeepTrace: true,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: fp16}},
		},
		"serial_fp16_dmr": {
			Format: fp16, Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
			Layer: layers[1], Injections: 40, Seed: 3, Pool: pool(),
			MeasureDMR: true, KeepTrace: true,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: fp16}},
		},
		"serial_fp16_weight": {
			Format: fp16, Site: goldeneye.SiteValue, Target: goldeneye.TargetWeight,
			Layer: weighted[0], Injections: 30, Seed: 13, Pool: pool(),
			KeepTrace: true,
		},
		"serial_bfp_metadata": {
			Format: bfp, Site: goldeneye.SiteMetadata, Target: goldeneye.TargetNeuron,
			Layer: layers[1], Injections: 40, Seed: 11, Pool: pool(),
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: bfp}}, KeepTrace: true,
		},
		"batched_bfp_metadata": {
			Format: bfp, Site: goldeneye.SiteMetadata, Target: goldeneye.TargetNeuron,
			Layer: layers[1], Injections: 40, Seed: 11, Pool: pool(), BatchSize: 4,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: bfp}}, KeepTrace: true,
		},
	}
}

// TestCampaignGoldenEquivalence replays every golden campaign against the
// current engine and requires bit-identical reports. This is the PR's core
// compatibility guarantee: an empty detector pipeline changes nothing.
func TestCampaignGoldenEquivalence(t *testing.T) {
	data, err := os.ReadFile("testdata/campaign_golden.json")
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	var records []goldenRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("golden file carries no records")
	}
	sim, p := loadSim(t, "mlp")
	x, y := p.subset(16)
	configs := goldenConfigs(sim, x, y)
	for _, rec := range records {
		cfg, ok := configs[rec.Name]
		if !ok {
			t.Fatalf("no configuration for golden record %q", rec.Name)
		}
		rep, err := sim.RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", rec.Name, err)
		}
		if rep.CampaignResult != rec.Result {
			t.Errorf("%s: aggregate diverged from golden:\n got %+v\nwant %+v",
				rec.Name, rep.CampaignResult, rec.Result)
		}
		if rep.Detected != rec.Detected || rep.Aborted != rec.Aborted {
			t.Errorf("%s: detected/aborted %d/%d, golden %d/%d",
				rec.Name, rep.Detected, rep.Aborted, rec.Detected, rec.Aborted)
		}
		if got := goldenTraceDigest(rep.Trace); got != rec.TraceFNV {
			t.Errorf("%s: trace digest %d, golden %d", rec.Name, got, rec.TraceFNV)
		}
	}
}
