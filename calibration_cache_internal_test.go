package goldeneye

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"slices"
	"testing"

	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/tensor"
)

// The process-wide cache carries the 16-entry and 32 MiB bounds (package
// lru tests the eviction itself).
func TestCalibrationCacheBounds(t *testing.T) {
	calibrations.Clear()
	defer calibrations.Clear()
	for i := range calibrationCacheEntries + 1 {
		calibrations.Add(sha256.Sum256([]byte{byte(i)}), &cleanState{})
	}
	if n := calibrations.Len(); n != calibrationCacheEntries {
		t.Fatalf("%d entries, want the bound of %d", n, calibrationCacheEntries)
	}
	calibrations.Clear()
	calibrations.Add([sha256.Size]byte{0}, &cleanState{cuts: tensor.New(calibrationCacheBytes/4 + 1)})
	calibrations.Add([sha256.Size]byte{1}, &cleanState{cuts: tensor.New(calibrationCacheBytes / 4)})
	if _, ok := calibrations.Get([sha256.Size]byte{1}); !ok || calibrations.Len() != 1 {
		t.Fatalf("byte bound is not %d: %d entries", calibrationCacheBytes, calibrations.Len())
	}
}

// Counting a lookup outcome costs nothing without telemetry.
func TestCountCalibrationCacheAllocFree(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { countCalibrationCache(nil, cacheHit) }); allocs != 0 {
		t.Fatalf("countCalibrationCache without a registry allocates %v times", allocs)
	}
}

// The calibration key covers every input of the setup sweeps and nothing
// else: after a base campaign, a campaign that differs only in what setup
// does not read hits its clean state, and one that differs in anything
// setup reads misses. Either way the report equals the one computed with
// the cache off.
func TestCalibrationKeyCoversSetupInputs(t *testing.T) {
	build := prefixBuilder("resnet_s", false)
	sim, err := build()
	if err != nil {
		t.Fatal(err)
	}
	ds := prefixDataset()
	pool := &EvalPool{X: ds.ValX.Slice(0, 8), Y: slices.Clone(ds.ValY[:8])}
	asg := func(spec string) *FormatAssignment {
		a, err := ParseFormatMap(spec)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	base := CampaignConfig{
		Assignment: asg("a:bfp_e5m5"), Site: inject.SiteValue, Target: inject.TargetNeuron,
		Layer: 12, Injections: 16, Seed: 5, Pool: pool, BatchSize: 4, UseRanger: true,
		Detectors: []detect.Spec{{Kind: "abft"}},
	}
	if sim.blockOf[9] != sim.blockOf[12] || sim.blockOf[17] == sim.blockOf[12] {
		t.Fatalf("resnet_s blocks moved: layers 9, 12, 17 in blocks %d, %d, %d", sim.blockOf[9], sim.blockOf[12], sim.blockOf[17])
	}
	perturbed := func() *Simulator {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		s.model.Params()[0].Value.Data()[0] += 1e-3
		return s
	}
	cases := []struct {
		name string
		hit  bool
		edit func(c *CampaignConfig) *Simulator // returns the simulator to run on, nil for sim
	}{
		{"seed_site_injections", true, func(c *CampaignConfig) *Simulator {
			c.Seed, c.Site, c.Injections = 99, inject.SiteMetadata, 8
			return nil
		}},
		{"layer_same_block", true, func(c *CampaignConfig) *Simulator { c.Layer = 9; return nil }},
		{"trace_dmr_telemetry", true, func(c *CampaignConfig) *Simulator {
			c.KeepTrace, c.MeasureDMR, c.Metrics = true, true, telemetry.NewRegistry()
			return nil
		}},
		{"pool_batch_geometry", true, func(c *CampaignConfig) *Simulator {
			p := *pool
			p.Batch = 2 // BatchSize decides the pack batch
			c.Pool = &p
			return nil
		}},
		{"layer_other_block", false, func(c *CampaignConfig) *Simulator { c.Layer = 17; return nil }},
		{"reuse_off", false, func(c *CampaignConfig) *Simulator {
			s, err := prefixBuilder("resnet_s", true)()
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"pool_input", false, func(c *CampaignConfig) *Simulator {
			x := pool.X.Clone()
			x.Data()[3] += 0.5
			c.Pool = &EvalPool{X: x, Y: pool.Y}
			return nil
		}},
		{"pool_labels", false, func(c *CampaignConfig) *Simulator {
			y := slices.Clone(pool.Y)
			y[0] = (y[0] + 1) % 10
			c.Pool = &EvalPool{X: pool.X, Y: y}
			return nil
		}},
		{"weights", false, func(c *CampaignConfig) *Simulator { return perturbed() }},
		{"params_role", false, func(c *CampaignConfig) *Simulator { c.Assignment = asg("p:fp16,a:bfp_e5m5"); return nil }},
		{"activation_format", false, func(c *CampaignConfig) *Simulator { c.Assignment = asg("a:int8"); return nil }},
		{"generic_format", false, func(c *CampaignConfig) *Simulator {
			c.Assignment = &FormatAssignment{Default: RoleFormats{Activations: numfmt.Generic(numfmt.BFPe5m5())}}
			return nil
		}},
		{"use_ranger", false, func(c *CampaignConfig) *Simulator { c.UseRanger = false; return nil }},
		{"pack_batch", false, func(c *CampaignConfig) *Simulator { c.BatchSize = 2; return nil }},
		{"detectors", false, func(c *CampaignConfig) *Simulator {
			c.Detectors = []detect.Spec{{Kind: "abft"}, {Kind: "sentinel"}}
			return nil
		}},
		{"abft_margin", false, func(c *CampaignConfig) *Simulator { c.Detectors = []detect.Spec{{Kind: "abft", Margin: 3}}; return nil }},
		{"recovery", false, func(c *CampaignConfig) *Simulator { c.Recovery = detect.PolicyClamp; return nil }},
	}
	wire := func(s *Simulator, cfg CampaignConfig) []byte {
		rep, err := s.RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			s := c.edit(&cfg)
			if s == nil {
				s = sim
			}
			calibrationsOff.Store(true)
			off := wire(s, cfg)
			calibrationsOff.Store(false)
			calibrations.Clear()
			wire(sim, base)
			reg := telemetry.NewRegistry()
			cfg.Metrics = reg
			got := wire(s, cfg)
			hit := reg.Counter(telemetry.Label(MetricCampaignCalibrationCache, "outcome", "hit")).Value() == 1
			if hit != c.hit {
				t.Errorf("cache hit = %v, want %v", hit, c.hit)
			}
			if !bytes.Equal(got, off) {
				t.Errorf("report differs from the cache-off report")
			}
		})
	}
}
