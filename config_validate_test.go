package goldeneye

import (
	"context"
	"errors"
	"strings"
	"testing"

	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/tensor"
	"goldeneye/internal/zoo"
)

// TestNewEvalPoolValidation exercises the constructor's typed rejections:
// empty pools, label mismatches, and batch geometries larger than the
// pool.
func TestNewEvalPoolValidation(t *testing.T) {
	x := tensor.New(4, 3)
	y := []int{0, 1, 0, 1}
	cases := []struct {
		name  string
		x     *tensor.Tensor
		y     []int
		batch int
		field string
	}{
		{"nil samples", nil, y, 2, "Pool"},
		{"label mismatch", x, y[:2], 2, "Pool"},
		{"negative batch", x, y, -1, "Pool.Batch"},
		{"oversized batch", x, y, 5, "Pool.Batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewEvalPool(tc.x, tc.y, tc.batch)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want *ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field: got %q, want %q (%v)", ce.Field, tc.field, err)
			}
		})
	}

	if _, err := NewEvalPool(x, y, 4); err != nil {
		t.Errorf("batch == pool size must be accepted, got %v", err)
	}
	if _, err := NewEvalPool(x, y, 0); err != nil {
		t.Errorf("batch 0 (default geometry) must be accepted, got %v", err)
	}
}

// TestCampaignConfigValidation drives the campaign entry point through the
// config edge cases: missing pool, empty pool, campaign batch exceeding
// the pool, and the model-independent rules of CampaignConfig.Validate.
// All must fail fast with a typed *ConfigError naming the field.
func TestCampaignConfigValidation(t *testing.T) {
	model, ds, err := zoo.Pretrained("mlp")
	if err != nil {
		t.Fatalf("zoo: %v", err)
	}
	sim := Wrap(model, ds.ValX)
	f, err := ParseFormat("fp16")
	if err != nil {
		t.Fatal(err)
	}
	pool := &EvalPool{X: ds.ValX.Slice(0, 8), Y: ds.ValY[:8], Batch: 4}

	base := CampaignConfig{
		Format: f, Injections: 3, Seed: 1, Layer: 1, Pool: pool,
		Site: inject.SiteValue, Target: inject.TargetNeuron,
	}

	cases := []struct {
		name   string
		mutate func(*CampaignConfig)
		field  string
	}{
		{"nil pool", func(c *CampaignConfig) { c.Pool = nil }, "Pool"},
		{"empty pool", func(c *CampaignConfig) { c.Pool = &EvalPool{} }, "Pool"},
		{"oversized campaign batch", func(c *CampaignConfig) { c.BatchSize = 9 }, "BatchSize"},
		{"unset site", func(c *CampaignConfig) { c.Site = 0 }, "Site"},
		{"unset target", func(c *CampaignConfig) { c.Target = 0 }, "Target"},
		{"nil format", func(c *CampaignConfig) { c.Format = nil }, "Format"},
		{"no injections", func(c *CampaignConfig) { c.Injections = 0 }, "Injections"},
		{"accum weight", func(c *CampaignConfig) { c.Site, c.Target = inject.SiteAccum, inject.TargetWeight }, "Target"},
		{"accum burst", func(c *CampaignConfig) { c.Site, c.FaultKind = inject.SiteAccum, inject.KindBurst }, "FaultKind"},
		{"recovery alone", func(c *CampaignConfig) { c.Recovery = detect.PolicyClamp }, "Recovery"},
		{"resume past end", func(c *CampaignConfig) { c.Resume = &CampaignReport{Aborted: 4} }, "Resume"},
		{"resume with trace", func(c *CampaignConfig) { c.Resume, c.KeepTrace = &CampaignReport{}, true }, "Resume"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			_, err := sim.RunCampaign(context.Background(), cfg)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want *ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field: got %q, want %q (%v)", ce.Field, tc.field, err)
			}
			if !strings.Contains(ce.Error(), "goldeneye: invalid "+tc.field) {
				t.Errorf("error text %q does not name the field", ce.Error())
			}

			// The parallel entry point must reject identically.
			_, perr := RunCampaignParallel(context.Background(), cfg, 2, func() (*Simulator, error) {
				return sim, nil
			})
			if !errors.As(perr, &ce) || ce.Field != tc.field {
				t.Errorf("parallel: want *ConfigError on %s, got %v", tc.field, perr)
			}
		})
	}

	// The model-independent rules need no pool: the campaign service runs
	// Validate before it resolves one.
	cfg := base
	cfg.Pool = nil
	if err := cfg.Validate(); err != nil {
		t.Errorf("pool-less config rejected by Validate: %v", err)
	}

	// Batch exactly the pool size stays valid.
	cfg = base
	cfg.BatchSize = 8
	if _, err := sim.RunCampaign(context.Background(), cfg); err != nil {
		t.Errorf("batch == pool size: %v", err)
	}
}

// TestNewSimulatorValidation covers the constructor's typed errors and
// Wrap's panic-on-invalid contract.
func TestNewSimulatorValidation(t *testing.T) {
	model, ds, err := zoo.Pretrained("mlp")
	if err != nil {
		t.Fatalf("zoo: %v", err)
	}
	if _, err := NewSimulator(nil, ds.ValX); err == nil {
		t.Error("nil model: want error")
	}
	if _, err := NewSimulator(model, nil); err == nil {
		t.Error("nil sample: want error")
	}
	var ce *ConfigError
	_, err = NewSimulator(nil, ds.ValX)
	if !errors.As(err, &ce) {
		t.Errorf("want *ConfigError, got %T", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("Wrap(nil, ...) must panic")
		}
	}()
	Wrap(nil, ds.ValX)
}
