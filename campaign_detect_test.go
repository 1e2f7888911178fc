package goldeneye_test

import (
	"context"
	"testing"

	"goldeneye"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/telemetry"
)

// detectConfig is the shared campaign shape of the detection tests: FP16
// exponent-heavy value faults at a mid-network layer with the named
// detector pipeline armed.
func detectConfig(t *testing.T, sim *goldeneye.Simulator, x *goldeneye.Tensor, y []int, injections int, detectors, recovery string) goldeneye.CampaignConfig {
	t.Helper()
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: injections,
		Seed:       29,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
	}
	if detectors != "" {
		specs, err := goldeneye.ParseDetectors(detectors)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Detectors = specs
		pol, err := goldeneye.ParseRecovery(recovery)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Recovery = pol
	}
	return cfg
}

// detectTraceIdentical extends reportsIdentical to the detection fields of
// the trace: which detectors fired, whether recovery succeeded, and the
// first non-finite layer attribution.
func detectTraceIdentical(t *testing.T, label string, got, want *goldeneye.CampaignReport) {
	t.Helper()
	reportsIdentical(t, label, got, want)
	if got.Recovered != want.Recovered {
		t.Fatalf("%s: Recovered %d vs %d", label, got.Recovered, want.Recovered)
	}
	for name, w := range want.PerDetector {
		g := got.PerDetector[name]
		if g != w {
			t.Fatalf("%s: PerDetector[%s] %+v vs %+v", label, name, g, w)
		}
	}
	for i := range want.Trace {
		a, b := got.Trace[i], want.Trace[i]
		if a.Recovered != b.Recovered || a.FirstNonFiniteLayer != b.FirstNonFiniteLayer ||
			len(a.DetectedBy) != len(b.DetectedBy) {
			t.Fatalf("%s: detection trace diverges at %d:\n got %+v\nwant %+v", label, i, a, b)
		}
		for j := range b.DetectedBy {
			if a.DetectedBy[j] != b.DetectedBy[j] {
				t.Fatalf("%s: DetectedBy diverges at %d: %v vs %v", label, i, a.DetectedBy, b.DetectedBy)
			}
		}
	}
}

// The promoted ranger detector under PolicyClamp must deliver the exact
// damage-mitigation aggregates the legacy UseRanger path did: both
// calibrate the same per-layer envelope from fault-free pool activations,
// and the row-confined clamp is a fixed point on in-range values.
func TestDetectRangerMatchesLegacyRanger(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)

	legacy := detectConfig(t, sim, x, y, 60, "", "")
	legacy.UseRanger = true
	legacy.KeepTrace = true
	want, err := sim.RunCampaign(context.Background(), legacy)
	if err != nil {
		t.Fatal(err)
	}

	promoted := detectConfig(t, sim, x, y, 60, "ranger", "clamp")
	promoted.KeepTrace = true
	got, err := sim.RunCampaign(context.Background(), promoted)
	if err != nil {
		t.Fatal(err)
	}

	if got.Injections != want.Injections || got.Mismatches != want.Mismatches ||
		got.NonFinite != want.NonFinite {
		t.Fatalf("aggregates diverge from legacy ranger: %+v vs %+v",
			got.CampaignResult, want.CampaignResult)
	}
	if got.DeltaLoss != want.DeltaLoss || got.MismatchStat != want.MismatchStat {
		t.Fatalf("Welford moments diverge from legacy ranger")
	}
	for i := range want.Trace {
		a, b := got.Trace[i], want.Trace[i]
		if a.Mismatch != b.Mismatch || a.DeltaLoss != b.DeltaLoss || a.NonFinite != b.NonFinite {
			t.Fatalf("trace diverges from legacy ranger at %d: %+v vs %+v", i, a, b)
		}
	}
	if got.Detected == 0 {
		t.Fatal("promoted ranger should report detections the legacy path never surfaced")
	}
}

// Batched campaigns with the full pipeline armed must stay bit-identical to
// serial ones, including every detection-side field.
func TestDetectSerialBatchedBitIdentical(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	for _, recovery := range []string{"none", "clamp", "reexecute"} {
		serial := detectConfig(t, sim, x, y, 30, "ranger,sentinel,dmr,abft", recovery)
		serial.KeepTrace = true
		want, err := sim.RunCampaign(context.Background(), serial)
		if err != nil {
			t.Fatal(err)
		}
		batched := serial
		batched.BatchSize = 4
		got, err := sim.RunCampaign(context.Background(), batched)
		if err != nil {
			t.Fatal(err)
		}
		detectTraceIdentical(t, "batched/"+recovery, got, want)
	}
}

// Resumed campaigns preserve Detected/Recovered bit-identically: the
// prefix report's detection aggregates carry forward through
// CampaignConfig.Resume on the serial path and the batched path.
func TestDetectResumeBitIdentical(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	for _, batch := range []int{0, 4} {
		full := detectConfig(t, sim, x, y, 40, "ranger,sentinel,dmr", "reexecute")
		full.BatchSize = batch
		want, err := sim.RunCampaign(context.Background(), full)
		if err != nil {
			t.Fatal(err)
		}

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
		if got.Detected != want.Detected || got.Recovered != want.Recovered ||
			got.Aborted != want.Aborted {
			t.Fatalf("batch=%d: resumed detection counts diverge: det=%d/%d recov=%d/%d",
				batch, got.Detected, want.Detected, got.Recovered, want.Recovered)
		}
		if got.DeltaLoss != want.DeltaLoss || got.MismatchStat != want.MismatchStat {
			t.Fatalf("batch=%d: resumed moments diverge", batch)
		}
		for name, w := range want.PerDetector {
			g := got.PerDetector[name]
			if g != w {
				t.Fatalf("batch=%d: resumed PerDetector[%s] %+v vs %+v", batch, name, g, w)
			}
		}
	}
}

// Parallel campaigns with detectors armed merge to the same report at any
// worker count; every shard calibrates its own pipeline from the same
// deterministic pool, so the merged false positives are measured once.
func TestDetectParallelWorkersBitIdentical(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := detectConfig(t, sim, x, y, 30, "ranger,sentinel,dmr", "reexecute")
	want, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		got, err := goldeneye.RunCampaignParallel(context.Background(), cfg, workers, mlpBuilder(t))
		if err != nil {
			t.Fatal(err)
		}
		if got.Detected != want.Detected || got.Recovered != want.Recovered ||
			got.Aborted != want.Aborted {
			t.Fatalf("workers=%d: detection counts diverge: det=%d/%d recov=%d/%d",
				workers, got.Detected, want.Detected, got.Recovered, want.Recovered)
		}
		if got.DeltaLoss != want.DeltaLoss || got.MismatchStat != want.MismatchStat {
			t.Fatalf("workers=%d: moments diverge", workers)
		}
		for name, w := range want.PerDetector {
			g := got.PerDetector[name]
			if g != w {
				t.Fatalf("workers=%d: PerDetector[%s] %+v vs %+v", workers, name, g, w)
			}
		}
	}
}

// The false-positive gate: every calibrated detector must ride a full
// campaign without flagging a single fault-free pool inference. This is
// the test the stress-detect CI target hammers under -race.
func TestCampaignFaultFreeZeroFalsePositives(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(16)
	cfg := detectConfig(t, sim, x, y, 20, "ranger,sentinel,dmr,abft", "none")
	rep, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerDetector) != 4 {
		t.Fatalf("expected 4 detector entries, got %v", rep.PerDetector)
	}
	for name, st := range rep.PerDetector {
		if st.FaultFreeRuns != 16 {
			t.Errorf("%s: false-positive sweep covered %d fault-free runs, want 16", name, st.FaultFreeRuns)
		}
		if st.FalsePositives != 0 {
			t.Errorf("%s: %d false positives on fault-free inferences", name, st.FalsePositives)
		}
	}
}

// PolicyAbort discards flagged inferences: they count as Detected and
// Aborted, never enter the aggregates, and do not trip MaxAborts (which
// bounds panics, not detections).
func TestDetectAbortPolicy(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := detectConfig(t, sim, x, y, 40, "ranger,sentinel,dmr", "abort")
	cfg.MaxAborts = 1 // must NOT trip on detection aborts
	rep, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injections+rep.Aborted != 40 {
		t.Fatalf("Injections+Aborted = %d+%d, want the planned 40", rep.Injections, rep.Aborted)
	}
	if rep.Aborted == 0 {
		t.Fatal("expected some detections to abort under FP16 exponent faults")
	}
	if rep.Aborted != rep.Detected {
		t.Fatalf("under PolicyAbort every detection aborts: aborted=%d detected=%d",
			rep.Aborted, rep.Detected)
	}
	if rep.Recovered != 0 {
		t.Fatalf("aborts are not recoveries, got Recovered=%d", rep.Recovered)
	}
	if n := int(rep.DeltaLoss.N()); n != rep.Injections {
		t.Fatalf("aggregates must exclude aborted rows: N=%d injections=%d", n, rep.Injections)
	}
}

// Telemetry: per-detector detection counters, the recovery counter, and
// the coverage gauges mirror the report.
func TestDetectTelemetry(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	reg := telemetry.NewRegistry()
	cfg := detectConfig(t, sim, x, y, 40, "ranger,sentinel,dmr", "reexecute")
	cfg.Metrics = reg
	rep, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected == 0 {
		t.Fatal("campaign produced no detections to meter")
	}
	for name, st := range rep.PerDetector {
		c := reg.Counter(telemetry.Label(goldeneye.MetricCampaignDetections, "detector", name))
		if got := int(c.Value()); got != st.Detections {
			t.Errorf("%s detections counter = %d, report %d", name, got, st.Detections)
		}
		g := reg.Gauge(telemetry.Label(goldeneye.MetricCampaignCoverage, "detector", name))
		if got, want := g.Value(), rep.DetectorCoverage(name); got != want {
			t.Errorf("%s coverage gauge = %v, report %v", name, got, want)
		}
	}
	if got := int(reg.Counter(goldeneye.MetricCampaignRecoveries).Value()); got != rep.Recovered {
		t.Errorf("recoveries counter = %d, report %d", got, rep.Recovered)
	}
}
