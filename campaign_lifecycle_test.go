package goldeneye_test

// Lifecycle hardening tests: panic isolation (degraded mode), cooperative
// cancellation with partial reports, and checkpoint-style resume
// bit-identity. The fault-triggering formats below exploit that with
// no Assignment, UseRanger=false, and no DMR, Format.Quantize runs
// exactly once per executed injection (inside inject.NeuronHook), so
// panics and cancellations land at deterministic injection indices.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"goldeneye"
	"goldeneye/internal/metrics"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/sampling"
	"goldeneye/internal/telemetry"
)

// panicEveryN panics on every nth Quantize call — the metadata-corruption
// failure mode (degenerate scales) that motivates panic isolation. The
// counter is shared across copies, so parallel workers observe one global
// call sequence.
type panicEveryN struct {
	numfmt.Format
	n     int64
	calls *atomic.Int64
}

func (f *panicEveryN) Quantize(t *goldeneye.Tensor) *goldeneye.Encoding {
	if f.calls.Add(1)%f.n == 0 {
		panic("injected quantizer corruption")
	}
	return f.Format.Quantize(t)
}

// cancelAfterN cancels a context from inside the nth injected inference,
// simulating a SIGINT landing mid-campaign at a deterministic point.
type cancelAfterN struct {
	numfmt.Format
	n      int64
	calls  *atomic.Int64
	cancel context.CancelFunc
}

func (f *cancelAfterN) Quantize(t *goldeneye.Tensor) *goldeneye.Encoding {
	if f.calls.Add(1) == f.n {
		f.cancel()
	}
	return f.Format.Quantize(t)
}

// lifecycleConfig is the bare campaign (no emulation, no ranger, no DMR)
// whose only Quantize calls come from the injection hook.
func lifecycleConfig(sim *goldeneye.Simulator, x *goldeneye.Tensor, y []int, injections int) goldeneye.CampaignConfig {
	return goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: injections,
		Seed:       23,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
	}
}

func TestCampaignPanicIsolationSerial(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	reg := telemetry.NewRegistry()
	cfg := lifecycleConfig(sim, x, y, 40)
	cfg.Format = &panicEveryN{Format: numfmt.FP16(true), n: 5, calls: new(atomic.Int64)}
	cfg.KeepTrace = true
	cfg.Metrics = reg

	rep, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatalf("degraded mode must not fail: %v", err)
	}
	if rep.Aborted != 8 || rep.Injections != 32 {
		t.Fatalf("want 8 aborted / 32 recorded, got %d / %d", rep.Aborted, rep.Injections)
	}
	if got := reg.Counter(goldeneye.MetricCampaignAborted).Value(); got != 8 {
		t.Fatalf("aborted telemetry counter = %d, want 8", got)
	}
	if len(rep.Trace) != 40 {
		t.Fatalf("trace should cover every injection, got %d", len(rep.Trace))
	}
	var aborted int
	for _, out := range rep.Trace {
		if out.Aborted {
			aborted++
			if out.Mismatch || out.DeltaLoss != 0 {
				t.Fatalf("aborted outcome carries metrics: %+v", out)
			}
		}
	}
	if aborted != 8 {
		t.Fatalf("trace records %d aborted outcomes, want 8", aborted)
	}
}

func TestCampaignPanicIsolationParallel(t *testing.T) {
	_, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	sim, err := mlpBuilder(t)()
	if err != nil {
		t.Fatal(err)
	}
	cfg := lifecycleConfig(sim, x, y, 40)
	// One shared call counter across all workers: exactly 8 of the 40
	// injections panic no matter how shards interleave.
	cfg.Format = &panicEveryN{Format: numfmt.FP16(true), n: 5, calls: new(atomic.Int64)}

	rep, err := goldeneye.RunCampaignParallel(context.Background(), cfg, 4, mlpBuilder(t))
	if err != nil {
		t.Fatalf("a panicking injection must not kill sibling workers: %v", err)
	}
	if rep.Aborted != 8 || rep.Injections != 32 {
		t.Fatalf("want 8 aborted / 32 recorded, got %d / %d", rep.Aborted, rep.Injections)
	}
}

func TestCampaignMaxAbortsFailsCampaign(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := lifecycleConfig(sim, x, y, 40)
	cfg.Format = &panicEveryN{Format: numfmt.FP16(true), n: 2, calls: new(atomic.Int64)}
	cfg.MaxAborts = 3

	_, err := sim.RunCampaign(context.Background(), cfg)
	if err == nil {
		t.Fatal("exceeding MaxAborts must fail the campaign")
	}
	var ie *goldeneye.InjectionError
	if !errors.As(err, &ie) {
		t.Fatalf("error should wrap *InjectionError, got %v", err)
	}
	if ie.Shard != 0 || ie.Injection < 0 || ie.Injection >= 40 {
		t.Fatalf("InjectionError coordinates implausible: %+v", ie)
	}
	if !strings.Contains(err.Error(), "MaxAborts") {
		t.Fatalf("error should name the threshold: %v", err)
	}

	// Parallel path enforces the same threshold across workers combined.
	cfg.Format = &panicEveryN{Format: numfmt.FP16(true), n: 2, calls: new(atomic.Int64)}
	_, err = goldeneye.RunCampaignParallel(context.Background(), cfg, 4, mlpBuilder(t))
	if err == nil || !errors.As(err, &ie) {
		t.Fatalf("parallel campaign should fail with *InjectionError, got %v", err)
	}
}

func TestCampaignCancelReturnsPartialPrefix(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := lifecycleConfig(sim, x, y, 40)
	cfg.Format = &cancelAfterN{Format: numfmt.FP16(true), n: 7, calls: new(atomic.Int64), cancel: cancel}

	rep, err := sim.RunCampaign(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil {
		t.Fatal("cancellation must still return the partial report")
	}
	if !rep.Interrupted {
		t.Fatal("partial report should be marked Interrupted")
	}
	// The cancel fires inside injection 7; that injection completes and is
	// recorded, then the loop observes the cancelled context.
	if rep.Injections != 7 {
		t.Fatalf("partial report covers %d injections, want exactly 7", rep.Injections)
	}

	// The prefix must carry the aggregates an uninterrupted run would have
	// at the same point: compare against a 7-injection campaign.
	short := lifecycleConfig(sim, x, y, 7)
	ref, err := sim.RunCampaign(context.Background(), short)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != ref.Mismatches || rep.DeltaLoss.Mean() != ref.DeltaLoss.Mean() {
		t.Fatalf("partial prefix diverges from uninterrupted prefix: %+v vs %+v",
			rep.CampaignResult, ref.CampaignResult)
	}
}

// An interrupted serial campaign publishes the same end-of-run telemetry
// as a parallel one: a cancelled sampled campaign with detectors still
// exposes its estimator's fault-space accounting and the per-detector
// coverage gauge.
func TestCampaignCancelPublishesTelemetry(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := telemetry.NewRegistry()
	cfg := lifecycleConfig(sim, x, y, 40)
	cfg.Format = &cancelAfterN{Format: numfmt.FP16(true), n: 5, calls: new(atomic.Int64), cancel: cancel}
	cfg.Sampling = &sampling.Plan{Fraction: 0.5}
	specs, err := goldeneye.ParseDetectors("ranger")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Detectors = specs
	cfg.Metrics = reg

	rep, err := sim.RunCampaign(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil || !rep.Interrupted || rep.Sampling == nil {
		t.Fatalf("want an Interrupted sampled partial report, got %+v", rep)
	}
	coverage := telemetry.Label(goldeneye.MetricCampaignCoverage, "detector", "ranger")
	var space int64
	covered := false
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case goldeneye.MetricSamplingFaultSpace:
			space = int64(m.Value)
		case coverage:
			covered = true
		}
	}
	if space == 0 || space != int64(rep.Sampling.FaultSpace()) {
		t.Fatalf("%s = %d, report covers %d", goldeneye.MetricSamplingFaultSpace, space, rep.Sampling.FaultSpace())
	}
	if !covered {
		t.Fatalf("cancelled campaign published no %s gauge", coverage)
	}
}

func TestCampaignCancelParallelWorkers(t *testing.T) {
	_, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	sim, err := mlpBuilder(t)()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := lifecycleConfig(sim, x, y, 40)
	cfg.Format = &cancelAfterN{Format: numfmt.FP16(true), n: 10, calls: new(atomic.Int64), cancel: cancel}

	rep, err := goldeneye.RunCampaignParallel(ctx, cfg, 4, mlpBuilder(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil || !rep.Interrupted {
		t.Fatalf("cancelled parallel campaign should return an Interrupted partial report, got %+v", rep)
	}
	// The 10th inference triggers cancel; it and at most the three sibling
	// in-flight injections complete before every worker stops.
	if rep.Injections < 10 || rep.Injections > 13 {
		t.Fatalf("partial parallel report covers %d injections, want 10..13", rep.Injections)
	}
}

func TestCampaignCancelBeforeStart(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := lifecycleConfig(sim, x, y, 40)
	_, serial := sim.RunCampaign(ctx, cfg)
	_, parallel := goldeneye.RunCampaignParallel(ctx, cfg, 3, mlpBuilder(t))
	for workers, err := range map[int]error{1: serial, 3: parallel} {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: pre-cancelled context should abort setup: %v", workers, err)
		}
	}
}

func TestCampaignResumeBitIdentical(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	full := lifecycleConfig(sim, x, y, 40)
	full.MeasureDMR = true
	want, err := sim.RunCampaign(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}

	// Because the fault sequence is deterministic in the seed, the first 12
	// injections of the 40-campaign ARE the 12-injection campaign.
	prefix := full
	prefix.Injections = 12
	part, err := sim.RunCampaign(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}

	resumed := full
	resumed.Resume = part
	got, err := sim.RunCampaign(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical, not approximately equal: serial resume continues the
	// Welford accumulators in place.
	if got.Injections != want.Injections || got.Mismatches != want.Mismatches ||
		got.NonFinite != want.NonFinite || got.Detected != want.Detected ||
		got.Aborted != want.Aborted {
		t.Fatalf("resumed counts differ: %+v vs %+v", got.CampaignResult, want.CampaignResult)
	}
	if got.DeltaLoss.Mean() != want.DeltaLoss.Mean() ||
		got.DeltaLoss.Variance() != want.DeltaLoss.Variance() ||
		got.MismatchStat.Mean() != want.MismatchStat.Mean() ||
		got.MismatchStat.Variance() != want.MismatchStat.Variance() {
		t.Fatalf("resumed moments differ: ΔLoss %v/%v vs %v/%v",
			got.DeltaLoss.Mean(), got.DeltaLoss.Variance(),
			want.DeltaLoss.Mean(), want.DeltaLoss.Variance())
	}
}

func TestCampaignResumeValidation(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)

	cfg := lifecycleConfig(sim, x, y, 10)
	cfg.Resume = &goldeneye.CampaignReport{CampaignResult: metrics.CampaignResult{Injections: 11}}
	if _, err := sim.RunCampaign(context.Background(), cfg); err == nil {
		t.Fatal("resume point beyond the campaign must be rejected")
	}

	cfg = lifecycleConfig(sim, x, y, 10)
	cfg.KeepTrace = true
	cfg.Resume = &goldeneye.CampaignReport{CampaignResult: metrics.CampaignResult{Injections: 5}}
	if _, err := sim.RunCampaign(context.Background(), cfg); err == nil {
		t.Fatal("resume with KeepTrace must be rejected")
	}
}

func TestTraceRecordsDetectedAndNonFinite(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := lifecycleConfig(sim, x, y, 60)
	cfg.MeasureDMR = true
	cfg.KeepTrace = true

	rep, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var detected, nonFinite, mismatches int
	for _, out := range rep.Trace {
		if out.Detected {
			detected++
		}
		if out.NonFinite {
			nonFinite++
		}
		if out.Mismatch {
			mismatches++
		}
	}
	if detected != rep.Detected || nonFinite != rep.NonFinite || mismatches != rep.Mismatches {
		t.Fatalf("trace aggregates (det=%d nf=%d mm=%d) diverge from report (det=%d nf=%d mm=%d)",
			detected, nonFinite, mismatches, rep.Detected, rep.NonFinite, rep.Mismatches)
	}
	if rep.Detected == 0 {
		t.Fatal("DMR should detect at least one transient neuron fault in 60 injections")
	}
}
