package goldeneye_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"goldeneye"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/sampling"
	"goldeneye/internal/zoo"
)

// engineGoldenRecord pins one campaign of the engine matrix: the
// campaign_golden.json record shape plus a SHA-256 of the report's wire
// bytes, which covers everything the record fields do not (per-detector
// breakdowns, estimator state, sampled trace indices, the config echo).
type engineGoldenRecord struct {
	goldenRecord
	WireSHA256 string `json:"wire_sha256"`
}

// zooBuilder returns a campaign worker constructor for a zoo model.
func zooBuilder(name string) func() (*goldeneye.Simulator, error) {
	return func() (*goldeneye.Simulator, error) {
		m, ds, err := zoo.Pretrained(name)
		if err != nil {
			return nil, err
		}
		return goldeneye.NewSimulator(m, ds.ValX.Slice(0, 1))
	}
}

// engineCase is one campaign of the engine golden matrix; run executes it
// through whichever entry point (serial, parallel, shards + merge) it pins.
type engineCase struct {
	name string
	run  func(t *testing.T) *goldeneye.CampaignReport
}

// engineCases rebuilds the engine golden matrix: every execution path of a
// campaign — serial, batched, parallel, resumed, sharded, sampled,
// sequentially stopped, detector-armed, weight-target, multi-bit, traced —
// on the mlp and resnet_s, plus a batched value-site campaign on one of
// vit_tiny's token-level linears.
func engineCases(t *testing.T) []engineCase {
	mlp, mlpPool := loadSim(t, "mlp")
	x, y := mlpPool.subset(16)
	mlpBuild := zooBuilder("mlp")
	layers := mlp.InjectableLayers()
	base := goldeneye.CampaignConfig{
		Format: numfmt.BFPe5m5(), Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
		Layer: layers[1], Injections: 48, Seed: 31, Pool: &goldeneye.EvalPool{X: x, Y: y},
		UseRanger: true, KeepTrace: true,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.BFPe5m5()}},
	}
	// with edits a copy of base; an edit that changes the format runs the
	// network in the new format too.
	with := func(edit func(*goldeneye.CampaignConfig)) goldeneye.CampaignConfig {
		cfg := base
		edit(&cfg)
		cfg.Assignment = &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: cfg.Format}}
		return cfg
	}
	serial := func(cfg goldeneye.CampaignConfig) func(t *testing.T) *goldeneye.CampaignReport {
		return func(t *testing.T) *goldeneye.CampaignReport {
			rep, err := mlp.RunCampaign(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
	}
	parallel := func(cfg goldeneye.CampaignConfig, workers int, build func() (*goldeneye.Simulator, error)) func(t *testing.T) *goldeneye.CampaignReport {
		return func(t *testing.T) *goldeneye.CampaignReport {
			rep, err := goldeneye.RunCampaignParallel(context.Background(), cfg, workers, build)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
	}
	detectors := func(list string, policy string) func(*goldeneye.CampaignConfig) {
		return func(c *goldeneye.CampaignConfig) {
			specs, err := goldeneye.ParseDetectors(list)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := goldeneye.ParseRecovery(policy)
			if err != nil {
				t.Fatal(err)
			}
			c.Detectors, c.Recovery, c.BatchSize = specs, rec, 4
		}
	}
	targetCI := func(c *goldeneye.CampaignConfig) {
		c.Format, c.Layer, c.Injections, c.Seed = numfmt.FP8E4M3(true), layers[1], 400, 7
		c.UseRanger, c.KeepTrace = false, true
		c.Sampling = &sampling.Plan{Fraction: 1, TargetCI: 0.3, CheckEvery: 64}
	}
	sampled := func(c *goldeneye.CampaignConfig) {
		c.Format, c.BatchSize = numfmt.FP16(true), 4
		c.Sampling = &sampling.Plan{Fraction: 0.5, Prune: true}
	}

	cases := []engineCase{
		{"serial", serial(base)},
		{"batched", serial(with(func(c *goldeneye.CampaignConfig) { c.BatchSize = 8 }))},
		{"parallel_w2", parallel(with(func(c *goldeneye.CampaignConfig) { c.BatchSize = 4 }), 2, mlpBuild)},
		{"parallel_w3", parallel(base, 3, mlpBuild)},
		{"parallel_w2_resumed", func(t *testing.T) *goldeneye.CampaignReport {
			cfg := with(func(c *goldeneye.CampaignConfig) { c.KeepTrace, c.BatchSize = false, 4 })
			pre := cfg
			pre.Injections = 19
			prefix, err := mlp.RunCampaign(context.Background(), pre)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Resume = prefix
			return parallel(cfg, 2, mlpBuild)(t)
		}},
		{"shards3_merged", func(t *testing.T) *goldeneye.CampaignReport {
			var reps []*goldeneye.CampaignReport
			for _, sc := range goldeneye.ShardConfigs(with(func(c *goldeneye.CampaignConfig) { c.BatchSize = 4 }), 3) {
				reps = append(reps, serial(sc)(t))
			}
			merged, err := goldeneye.MergeShardReports(reps)
			if err != nil {
				t.Fatal(err)
			}
			return merged
		}},
		{"sampled_prune", serial(with(sampled))},
		{"sampled_prune_w2", parallel(with(sampled), 2, mlpBuild)},
		{"targetci_serial", serial(with(targetCI))},
		{"targetci_w2", parallel(with(targetCI), 2, mlpBuild)},
		{"ranger_abft_reexecute", serial(with(detectors("ranger,abft", "reexecute")))},
		{"ranger_abft_reexecute_w2", parallel(with(detectors("ranger,abft", "reexecute")), 2, mlpBuild)},
		{"dmr", serial(with(func(c *goldeneye.CampaignConfig) {
			detectors("dmr", "none")(c)
			c.MeasureDMR = true
		}))},
		{"abort", serial(with(detectors("ranger,abft", "abort")))},
		{"weight", serial(with(func(c *goldeneye.CampaignConfig) {
			c.Format, c.Target, c.Layer, c.BatchSize = numfmt.FP16(true), goldeneye.TargetWeight, mlp.WeightedLayers()[0], 8
		}))},
		{"flips3", serial(with(func(c *goldeneye.CampaignConfig) { c.FlipsPerInjection, c.BatchSize = 3, 4 }))},
		{"keeptrace_w3_batched", parallel(with(func(c *goldeneye.CampaignConfig) {
			c.Site, c.Layer, c.BatchSize = goldeneye.SiteMetadata, layers[0], 4
		}), 3, mlpBuild)},
	}

	resnet, resnetPool := loadSim(t, "resnet_s")
	rx, ry := resnetPool.subset(8)
	rlayers := resnet.InjectableLayers()
	cases = append(cases, engineCase{"resnet_s_batched_w2", parallel(goldeneye.CampaignConfig{
		Format: numfmt.INT8(), Site: goldeneye.SiteMetadata, Target: goldeneye.TargetNeuron,
		Layer: rlayers[len(rlayers)/2], Injections: 16, Seed: 5, Pool: &goldeneye.EvalPool{X: rx, Y: ry},
		BatchSize: 4, UseRanger: true, KeepTrace: true,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.INT8()}},
	}, 2, zooBuilder("resnet_s"))})

	vit, vitPool := loadSim(t, "vit_tiny")
	vx, vy := vitPool.subset(8)
	token := -1
	for _, l := range vit.Layers() {
		if l.Kind == nn.KindLinear && strings.Contains(l.Name, ".blk0.") {
			token = l.Index
			break
		}
	}
	if token < 0 {
		t.Fatal("vit_tiny has no block-0 linear")
	}
	cases = append(cases, engineCase{"vit_tiny_token_linear_batched", func(t *testing.T) *goldeneye.CampaignReport {
		rep, err := vit.RunCampaign(context.Background(), goldeneye.CampaignConfig{
			Format: numfmt.FP16(true), Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
			Layer: token, Injections: 12, Seed: 9, Pool: &goldeneye.EvalPool{X: vx, Y: vy},
			BatchSize: 4, KeepTrace: true,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}})
	return cases
}

// engineRecord reduces a report to its golden record.
func engineRecord(t *testing.T, name string, rep *goldeneye.CampaignReport) engineGoldenRecord {
	wire, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sum := sha256.Sum256(wire)
	return engineGoldenRecord{
		goldenRecord: goldenRecord{Name: name, Result: rep.CampaignResult, Detected: rep.Detected,
			Aborted: rep.Aborted, TraceFNV: goldenTraceDigest(rep.Trace)},
		WireSHA256: hex.EncodeToString(sum[:]),
	}
}

// TestEngineGolden replays the engine matrix and requires every report —
// wire bytes included — to equal testdata/engine_golden.json, which was
// generated before the serial and parallel campaign paths became one
// engine.
func TestEngineGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/engine_golden.json")
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	var records []engineGoldenRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	want := make(map[string]engineGoldenRecord, len(records))
	for _, rec := range records {
		want[rec.Name] = rec
	}
	cases := engineCases(t)
	if len(cases) != len(records) {
		t.Fatalf("golden file has %d records, the matrix %d cases", len(records), len(cases))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec, ok := want[c.name]
			if !ok {
				t.Fatalf("no golden record for %q", c.name)
			}
			got := engineRecord(t, c.name, c.run(t))
			if got != rec {
				t.Fatalf("report diverged from golden:\n got %+v\nwant %+v", got, rec)
			}
		})
	}
}
