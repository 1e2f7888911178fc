package goldeneye_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"goldeneye"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/telemetry"
)

// Same seed, same campaign — the report must not depend on the worker
// count. Integer aggregates and the injected fault sequence are required
// to be bit-identical; the Welford-merged ΔLoss moments may differ only by
// floating-point reassociation (documented on RunCampaignParallel).
func TestCampaignDeterminismAcrossWorkerCounts(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(16)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.BFPe5m5(),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: 96,
		Seed:       42,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		UseRanger:  true,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.BFPe5m5()}},
		KeepTrace:  true,
	}

	reports := map[int]*goldeneye.CampaignReport{}
	for _, workers := range []int{1, 2, 8} {
		rep, err := goldeneye.RunCampaignParallel(context.Background(), cfg, workers, mlpBuilder(t))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reports[workers] = rep
	}

	ref := reports[1]
	for _, workers := range []int{2, 8} {
		rep := reports[workers]
		if rep.Injections != ref.Injections ||
			rep.Mismatches != ref.Mismatches ||
			rep.NonFinite != ref.NonFinite ||
			rep.Detected != ref.Detected {
			t.Fatalf("workers=%d integer aggregates diverge: %+v vs %+v",
				workers, rep.CampaignResult, ref.CampaignResult)
		}
		if math.Abs(rep.MeanDeltaLoss()-ref.MeanDeltaLoss()) > 1e-9 {
			t.Fatalf("workers=%d mean ΔLoss %v vs %v", workers, rep.MeanDeltaLoss(), ref.MeanDeltaLoss())
		}
		if math.Abs(rep.DeltaLoss.Variance()-ref.DeltaLoss.Variance()) > 1e-6 {
			t.Fatalf("workers=%d ΔLoss variance %v vs %v", workers, rep.DeltaLoss.Variance(), ref.DeltaLoss.Variance())
		}
		if len(rep.Trace) != len(ref.Trace) {
			t.Fatalf("workers=%d trace length %d vs %d", workers, len(rep.Trace), len(ref.Trace))
		}
		for i := range ref.Trace {
			a, b := ref.Trace[i], rep.Trace[i]
			if a.Fault != b.Fault || a.Sample != b.Sample || a.Mismatch != b.Mismatch ||
				a.DeltaLoss != b.DeltaLoss {
				t.Fatalf("workers=%d trace diverges at %d: %+v vs %+v", workers, i, a, b)
			}
		}
	}
}

func TestCampaignTelemetry(t *testing.T) {
	goldeneye.ResetCalibrationCache() // the clean reference passes run only on a miss
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	reg := telemetry.NewRegistry()
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 30,
		Seed:       7,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
		Metrics:    reg,
	}
	rep, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(goldeneye.MetricCampaignInjections).Value(); got != int64(cfg.Injections) {
		t.Fatalf("injections counter = %d, want %d", got, cfg.Injections)
	}
	if got := reg.Counter(goldeneye.MetricCampaignMismatches).Value(); got != int64(rep.Mismatches) {
		t.Fatalf("mismatches counter = %d, want %d", got, rep.Mismatches)
	}
	if got := reg.Gauge(goldeneye.MetricCampaignPlanned).Value(); got != float64(cfg.Injections) {
		t.Fatalf("planned gauge = %v, want %d", got, cfg.Injections)
	}
	if got := reg.Histogram(goldeneye.MetricCampaignLatency, nil).Count(); got != int64(cfg.Injections) {
		t.Fatalf("latency histogram count = %d, want %d", got, cfg.Injections)
	}
	// Per-layer forward histograms must exist with observations for every
	// injectable layer (the clean reference passes alone guarantee > 0).
	found := 0
	for _, m := range reg.Snapshot() {
		if m.Kind == telemetry.KindHistogram &&
			strings.HasPrefix(m.Name, goldeneye.ForwardSecondsMetric+"{") && m.Count > 0 {
			found++
		}
	}
	if want := len(sim.Layers()); found != want {
		t.Fatalf("per-layer forward histograms with data: %d, want %d", found, want)
	}
}

func TestParallelCampaignTelemetryShards(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		cfg := goldeneye.CampaignConfig{
			Format:     numfmt.FP16(true),
			Site:       goldeneye.SiteValue,
			Target:     goldeneye.TargetNeuron,
			Layer:      sim.InjectableLayers()[0],
			Injections: 40,
			Seed:       9,
			Pool:       &goldeneye.EvalPool{X: x, Y: y},
			Metrics:    reg,
		}
		if _, err := goldeneye.RunCampaignParallel(context.Background(), cfg, workers, mlpBuilder(t)); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter(goldeneye.MetricCampaignInjections).Value(); got != int64(cfg.Injections) {
			t.Fatalf("workers=%d: injections counter = %d, want %d", workers, got, cfg.Injections)
		}
		var shardWork int64
		shards := 0
		for _, m := range reg.Snapshot() {
			if strings.HasPrefix(m.Name, goldeneye.MetricCampaignShardWork+"{") {
				shardWork += int64(m.Value)
			}
			if strings.HasPrefix(m.Name, goldeneye.MetricCampaignShardTime+"{") {
				shards++
			}
		}
		if shardWork != int64(cfg.Injections) {
			t.Fatalf("workers=%d: shard work counters sum to %d, want %d", workers, shardWork, cfg.Injections)
		}
		if shards != workers {
			t.Fatalf("workers=%d: shard timing gauges = %d, want %d", workers, shards, workers)
		}
	}
}

func TestParallelCampaignWrapsWorkerError(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(4)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 8,
		Seed:       1,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
	}
	var calls atomic.Int32
	_, err := goldeneye.RunCampaignParallel(context.Background(), cfg, 4, func() (*goldeneye.Simulator, error) {
		// First call (the scout) succeeds so the campaign reaches the
		// worker phase; later builds fail inside workers.
		if calls.Add(1) == 1 {
			return mlpBuilder(t)()
		}
		return nil, errBoom
	})
	if err == nil {
		t.Fatal("expected a worker error")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("worker error must wrap the cause, got %v", err)
	}
	if !strings.Contains(err.Error(), "campaign worker") {
		t.Fatalf("worker error must name the failing shard, got %q", err)
	}
}
