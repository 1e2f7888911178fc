package goldeneye_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"goldeneye"
	"goldeneye/internal/detect"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/zoo"
)

// wireOf returns a report's wire bytes.
func wireOf(t *testing.T, rep *goldeneye.CampaignReport) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// threeWays runs a campaign with the calibration cache off, then cold (an
// empty cache) and warm (a second run of the same key), and requires the
// three reports to match byte for byte.
func threeWays(t *testing.T, run func(t *testing.T) *goldeneye.CampaignReport) {
	t.Helper()
	var off []byte
	goldeneye.WithoutCalibrationCache(func() { off = wireOf(t, run(t)) })
	goldeneye.ResetCalibrationCache()
	cold := wireOf(t, run(t))
	if goldeneye.CalibrationCacheLen() == 0 {
		t.Fatal("the cold run left the cache empty")
	}
	warm := wireOf(t, run(t))
	if !bytes.Equal(cold, off) {
		t.Fatalf("cold report differs from the cache-off report:\ncold %s\n off %s", cold, off)
	}
	if !bytes.Equal(warm, off) {
		t.Fatalf("warm report differs from the cache-off report:\nwarm %s\n off %s", warm, off)
	}
}

// A campaign that takes its clean state from the calibration cache reports
// exactly what it reports computing that state itself: the engine matrix
// and the pre-detector golden campaigns, cold, warm and with the cache off.
func TestCalibrationCacheHitByteIdentical(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		for i, c := range engineCases(t) {
			if goldeneye.RaceEnabled && i%4 != 0 && c.name != "ranger_abft_reexecute_w2" {
				continue
			}
			t.Run(c.name, func(t *testing.T) { threeWays(t, c.run) })
		}
	})
	t.Run("campaign_golden", func(t *testing.T) {
		sim, p := loadSim(t, "mlp")
		x, y := p.subset(16)
		configs := goldenConfigs(sim, x, y)
		names := make([]string, 0, len(configs))
		for name := range configs {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			t.Run(name, func(t *testing.T) {
				threeWays(t, func(t *testing.T) *goldeneye.CampaignReport {
					rep, err := sim.RunCampaign(context.Background(), configs[name])
					if err != nil {
						t.Fatal(err)
					}
					return rep
				})
			})
		}
	})
	t.Run("discarded_workers", func(t *testing.T) {
		// The cold run's worker models are discarded once the campaign has
		// restored their weights; the warm run's workers are new models, so
		// the hit rests on the key alone.
		_, p := loadSim(t, "resnet_s")
		x, y := p.subset(8)
		cfg := cacheConfig(t, "resnet_s", x, y)
		cfg.Detectors, cfg.Recovery = mustDetectors(t, "ranger,abft"), goldeneye.RecoverReexecute
		var off []byte
		goldeneye.WithoutCalibrationCache(func() { off = wireOf(t, runParallel(t, cfg, zooBuilder("resnet_s"))) })
		goldeneye.ResetCalibrationCache()

		var models []nn.Module
		var saved [][][]float32
		build := func() (*goldeneye.Simulator, error) {
			m, ds, err := zoo.Pretrained("resnet_s")
			if err != nil {
				return nil, err
			}
			models = append(models, m)
			saved = append(saved, paramBits(m))
			return goldeneye.NewSimulator(m, ds.ValX.Slice(0, 1))
		}
		if cold := wireOf(t, runParallel(t, cfg, build)); !bytes.Equal(cold, off) {
			t.Fatal("cold report differs from the cache-off report")
		}
		for i, m := range models {
			if !slices.EqualFunc(paramBits(m), saved[i], slices.Equal[[]float32]) {
				t.Fatalf("worker %d's weights were not restored", i)
			}
		}
		models, saved = nil, nil
		runtime.GC()
		if warm := wireOf(t, runParallel(t, cfg, zooBuilder("resnet_s"))); !bytes.Equal(warm, off) {
			t.Fatal("warm report on new worker models differs from the cache-off report")
		}
	})
}

// cacheConfig is a late-layer, batched, UseRanger campaign on a zoo model.
func cacheConfig(t *testing.T, model string, x *goldeneye.Tensor, y []int) goldeneye.CampaignConfig {
	t.Helper()
	sim, _ := loadSim(t, model)
	asg, err := goldeneye.ParseFormatMap("a:bfp_e5m5")
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.InjectableLayers()
	return goldeneye.CampaignConfig{
		Assignment: asg, Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
		Layer: inj[len(inj)-2], Injections: 24, Seed: 7, Pool: &goldeneye.EvalPool{X: x, Y: y},
		BatchSize: 4, UseRanger: true, KeepTrace: true,
	}
}

func mustDetectors(t *testing.T, list string) []goldeneye.DetectorSpec {
	t.Helper()
	specs, err := goldeneye.ParseDetectors(list)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func runParallel(t *testing.T, cfg goldeneye.CampaignConfig, build func() (*goldeneye.Simulator, error)) *goldeneye.CampaignReport {
	t.Helper()
	rep, err := goldeneye.RunCampaignParallel(context.Background(), cfg, 2, build)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// paramBits copies every parameter's values.
func paramBits(m nn.Module) [][]float32 {
	var out [][]float32
	for _, p := range m.Params() {
		out = append(out, slices.Clone(p.Value.Data()))
	}
	return out
}

// cacheOutcomes reads MetricCampaignCalibrationCache by outcome.
func cacheOutcomes(reg *telemetry.Registry) (hit, miss, bypass int64) {
	c := func(outcome string) int64 {
		return reg.Counter(telemetry.Label(goldeneye.MetricCampaignCalibrationCache, "outcome", outcome)).Value()
	}
	return c("hit"), c("miss"), c("bypass")
}

// The second campaign of a key runs no setup sweep: a late-layer UseRanger
// campaign runs the first layer once per timed reference and armed-sweep
// slice when cold, and never when warm, since every injected pass starts at
// the cached cut.
func TestCalibrationCacheSecondRunSkipsSetup(t *testing.T) {
	goldeneye.ResetCalibrationCache()
	sim, p := loadSim(t, "resnet_s")
	x, y := p.subset(16)
	cfg := cacheConfig(t, "resnet_s", x, y)
	cfg.KeepTrace = false
	first := telemetry.Label(goldeneye.ForwardSecondsMetric, "layer", sim.Layers()[0].String())
	for run, want := range []struct{ passes, hit, miss int64 }{{8, 0, 1}, {0, 1, 0}} {
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		runParallel(t, cfg, zooBuilder("resnet_s"))
		if got := reg.Histogram(first, nil).Count(); got != want.passes {
			t.Errorf("run %d: the first layer ran %d times, want %d", run, got, want.passes)
		}
		if hit, miss, bypass := cacheOutcomes(reg); hit != want.hit || miss != want.miss || bypass != 0 {
			t.Errorf("run %d: cache outcomes hit/miss/bypass %d/%d/%d, want %d/%d/0",
				run, hit, miss, bypass, want.hit, want.miss)
		}
	}
}

// opaqueFormat is a caller's own Format type: the calibration key cannot
// tell two of them apart by name.
type opaqueFormat struct{ numfmt.Format }

// Campaigns whose clean state comes from outside the key run their setup
// sweeps and store nothing: a detector with a custom factory and an
// assignment with a format type of the caller's own. A format and
// numfmt.Generic of it share a name but key apart.
func TestCalibrationCacheBypass(t *testing.T) {
	sim, p := loadSim(t, "mlp")
	x, y := p.subset(8)
	base := goldeneye.CampaignConfig{
		Format: numfmt.FP16(true), Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
		Layer: sim.InjectableLayers()[1], Injections: 8, Seed: 3, Pool: &goldeneye.EvalPool{X: x, Y: y},
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
	}
	run := func(cfg goldeneye.CampaignConfig) (hit, miss, bypass int64) {
		t.Helper()
		cfg.Metrics = telemetry.NewRegistry()
		if _, err := sim.RunCampaign(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		return cacheOutcomes(cfg.Metrics)
	}
	custom := base
	custom.Detectors = []detect.Spec{{Kind: "ranger", New: func(detect.Target) (detect.Detector, error) { return detect.NewRanger(), nil }}}
	opaque := base
	opaque.Assignment = &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: opaqueFormat{numfmt.FP16(true)}}}
	for name, cfg := range map[string]goldeneye.CampaignConfig{"custom_detector": custom, "opaque_format": opaque} {
		goldeneye.ResetCalibrationCache()
		for range 2 {
			if hit, miss, bypass := run(cfg); hit != 0 || miss != 0 || bypass != 1 {
				t.Errorf("%s: cache outcomes hit/miss/bypass %d/%d/%d, want 0/0/1", name, hit, miss, bypass)
			}
		}
		if n := goldeneye.CalibrationCacheLen(); n != 0 {
			t.Errorf("%s: the cache holds %d states", name, n)
		}
	}

	goldeneye.ResetCalibrationCache()
	generic := base
	generic.Assignment = &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.Generic(numfmt.FP16(true))}}
	for i, cfg := range []goldeneye.CampaignConfig{base, generic, base, generic} {
		wantMiss := int64(0)
		if i < 2 {
			wantMiss = 1
		}
		if hit, miss, _ := run(cfg); miss != wantMiss || hit != 1-wantMiss {
			t.Errorf("campaign %d: cache outcomes hit/miss %d/%d, want %d/%d", i, hit, miss, 1-wantMiss, wantMiss)
		}
	}
}

// The cache keeps no campaign alive: once a campaign is over, its pool, its
// registry and every worker's model are unreachable while the cache entry
// its calibration left behind is still live.
func TestCalibrationCacheRetainsNoCampaign(t *testing.T) {
	goldeneye.ResetCalibrationCache()
	_, p := loadSim(t, "resnet_s")
	pool, reg, models := retentionCampaign(t, p)
	runtime.GC()
	if pool.Value() != nil {
		t.Error("the campaign's EvalPool is still reachable")
	}
	if reg.Value() != nil {
		t.Error("the campaign's telemetry.Registry is still reachable")
	}
	for i, m := range models {
		if m.Value() != nil {
			t.Errorf("worker %d's model is still reachable", i)
		}
	}
	if goldeneye.CalibrationCacheLen() != 1 {
		t.Fatalf("the cache holds %d states, want the campaign's 1", goldeneye.CalibrationCacheLen())
	}
}

// retentionCampaign runs one detector-armed campaign on fresh copies of its
// pool and models and returns weak pointers to them.
func retentionCampaign(t *testing.T, p *testPool) (weak.Pointer[goldeneye.EvalPool], weak.Pointer[telemetry.Registry], []weak.Pointer[nn.Sequential]) {
	x, y := p.subset(8)
	cfg := cacheConfig(t, "resnet_s", x.Clone(), slices.Clone(y))
	cfg.Detectors = mustDetectors(t, "ranger,abft,dmr")
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Progress = func(int, int) {}
	var models []weak.Pointer[nn.Sequential]
	build := func() (*goldeneye.Simulator, error) {
		m, ds, err := zoo.Pretrained("resnet_s")
		if err != nil {
			return nil, err
		}
		models = append(models, weak.Make(m.(*nn.Sequential)))
		return goldeneye.NewSimulator(m, ds.ValX.Slice(0, 1))
	}
	runParallel(t, cfg, build)
	return weak.Make(cfg.Pool), weak.Make(cfg.Metrics), models
}

// Two campaigns of one key, run at once, may both miss and compute the
// clean state; each reports exactly the cold report.
func TestCalibrationCacheConcurrentCampaigns(t *testing.T) {
	_, p := loadSim(t, "resnet_s")
	x, y := p.subset(8)
	cfg := cacheConfig(t, "resnet_s", x, y)
	cfg.Detectors, cfg.Recovery = mustDetectors(t, "ranger,abft"), goldeneye.RecoverReexecute
	var cold []byte
	goldeneye.WithoutCalibrationCache(func() { cold = wireOf(t, runParallel(t, cfg, zooBuilder("resnet_s"))) })
	goldeneye.ResetCalibrationCache()
	reps := make([]*goldeneye.CampaignReport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = goldeneye.RunCampaignParallel(context.Background(), cfg, 2, zooBuilder("resnet_s"))
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := wireOf(t, rep); !bytes.Equal(got, cold) {
			t.Errorf("concurrent campaign %d differs from the cold report", i)
		}
	}
}

// A cancelled setup stores nothing: the next campaign of its key misses.
func TestCalibrationCacheSkipsCancelledSetup(t *testing.T) {
	goldeneye.ResetCalibrationCache()
	_, p := loadSim(t, "resnet_s")
	x, y := p.subset(8)
	cfg := cacheConfig(t, "resnet_s", x, y)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := goldeneye.RunCampaignParallel(ctx, cfg, 2, zooBuilder("resnet_s"))
	if !errors.Is(err, context.Canceled) || rep == nil || !rep.Interrupted {
		t.Fatalf("cancelled campaign returned %v, %v", rep, err)
	}
	if n := goldeneye.CalibrationCacheLen(); n != 0 {
		t.Fatalf("a cancelled setup left %d states in the cache", n)
	}
}
