package goldeneye_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/telemetry"
)

// reportsIdentical asserts two campaign reports agree bit-for-bit:
// integer aggregates, the float64 Welford moments, and (when kept) every
// trace entry including the drawn faults.
func reportsIdentical(t *testing.T, label string, got, want *goldeneye.CampaignReport) {
	t.Helper()
	if got.Injections != want.Injections || got.Mismatches != want.Mismatches ||
		got.NonFinite != want.NonFinite || got.Detected != want.Detected ||
		got.Aborted != want.Aborted || got.Interrupted != want.Interrupted {
		t.Fatalf("%s: integer aggregates diverge:\n got %+v det=%d ab=%d\nwant %+v det=%d ab=%d",
			label, got.CampaignResult, got.Detected, got.Aborted,
			want.CampaignResult, want.Detected, want.Aborted)
	}
	if got.DeltaLoss != want.DeltaLoss || got.MismatchStat != want.MismatchStat {
		t.Fatalf("%s: Welford moments diverge: ΔLoss %+v vs %+v", label, got.DeltaLoss, want.DeltaLoss)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d vs %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		a, b := got.Trace[i], want.Trace[i]
		if a.Fault != b.Fault || a.Sample != b.Sample || a.Mismatch != b.Mismatch ||
			a.DeltaLoss != b.DeltaLoss || a.NonFinite != b.NonFinite ||
			a.Detected != b.Detected || a.Aborted != b.Aborted || len(a.Extra) != len(b.Extra) {
			t.Fatalf("%s: trace diverges at %d:\n got %+v\nwant %+v", label, i, a, b)
		}
	}
}

// The tentpole guarantee: for every format family, every supported
// injection site and both the single-element and the burst error model, a
// batched campaign's report is bit-identical to the serial batch-1 report
// under the same seed — on the MLP, whose layers hold one row per sample,
// and on vit_tiny's first block-0 linear, whose (N·T, D) output holds T
// token rows per sample that must share one sample's metadata.
func TestBatchedCampaignBitIdenticalAllFamilies(t *testing.T) {
	mlp, mlpPool := loadSim(t, "mlp")
	vit, vitPool := loadSim(t, "vit_tiny")
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
	formats := []goldeneye.Format{
		numfmt.FP8E4M3(true), // FP
		numfmt.FxP16(),       // FxP
		numfmt.INT8(),        // INT (scale metadata)
		numfmt.BFPe5m5(),     // BFP (shared-exponent metadata)
		numfmt.AFPe5m2(),     // AFP (bias metadata)
		numfmt.Posit8(),      // posit
		numfmt.LNS8(),        // LNS
		numfmt.NewLUT(4),     // LUT (scale metadata)
	}
	models := []struct {
		name  string
		sim   *goldeneye.Simulator
		pool  *testPool
		layer int
	}{
		{"mlp", mlp, mlpPool, mlp.InjectableLayers()[1]},
		{"vit_tiny", vit, vitPool, token},
	}
	n := 0
	for _, m := range models {
		x, y := m.pool.subset(8)
		for _, f := range formats {
			sites := []inject.Site{goldeneye.SiteValue}
			if inject.MetaBitWidth(f) > 0 {
				sites = append(sites, goldeneye.SiteMetadata)
			}
			for _, site := range sites {
				for _, kind := range []inject.FaultKind{inject.KindFlip, inject.KindBurst} {
					label := m.name + "/" + f.Name() + "/" + site.String() + "/" + kind.String()
					if n++; goldeneye.RaceEnabled && n%4 != 1 {
						continue // the race build checks every fourth case
					}
					cfg := goldeneye.CampaignConfig{
						Format:     f,
						Site:       site,
						Target:     goldeneye.TargetNeuron,
						FaultKind:  kind,
						Layer:      m.layer,
						Injections: 23, // not a multiple of the batch: exercises the ragged tail
						Seed:       11,
						Pool:       &goldeneye.EvalPool{X: x, Y: y},
						UseRanger:  true,
						Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: f}},
						KeepTrace:  true,
						MeasureDMR: true,
					}
					serial, err := m.sim.RunCampaign(context.Background(), cfg)
					if err != nil {
						t.Fatalf("%s serial: %v", label, err)
					}
					bcfg := cfg
					bcfg.BatchSize = 5
					batched, err := m.sim.RunCampaign(context.Background(), bcfg)
					if err != nil {
						t.Fatalf("%s batched: %v", label, err)
					}
					reportsIdentical(t, label, batched, serial)
				}
			}
		}
	}
}

// Batched scheduling composes with worker-pool sharding: integer
// aggregates and trace stay bit-identical (the Welford merge order is the
// only documented difference, same as serial parallel campaigns).
func TestBatchedCampaignParallelCompose(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.INT8(),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 42,
		Seed:       5,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.INT8()}},
		KeepTrace:  true,
	}
	serial, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.BatchSize = 4
	par, err := goldeneye.RunCampaignParallel(context.Background(), bcfg, 3, mlpBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if par.Injections != serial.Injections || par.Mismatches != serial.Mismatches ||
		par.NonFinite != serial.NonFinite || par.Detected != serial.Detected {
		t.Fatalf("batched parallel aggregates diverge: %+v vs %+v", par.CampaignResult, serial.CampaignResult)
	}
	for i := range serial.Trace {
		a, b := par.Trace[i], serial.Trace[i]
		if a.Fault != b.Fault || a.Sample != b.Sample || a.Mismatch != b.Mismatch || a.DeltaLoss != b.DeltaLoss {
			t.Fatalf("batched parallel trace diverges at %d: %+v vs %+v", i, a, b)
		}
	}
}

// A batched campaign resumed mid-flight must reproduce the uninterrupted
// report bit-identically (resume granularity stays per-injection, not
// per-batch).
func TestBatchedCampaignResume(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(6)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.AFPe5m2(),
		Site:       goldeneye.SiteMetadata,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 18,
		Seed:       3,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.AFPe5m2()}},
		BatchSize:  4,
	}
	full, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run a 7-injection prefix (mid-batch from the full run's point of
	// view), then resume for the remaining 11.
	pre := cfg
	pre.Injections = 7
	prefix, err := sim.RunCampaign(context.Background(), pre)
	if err != nil {
		t.Fatal(err)
	}
	res := cfg
	res.Resume = prefix
	resumed, err := sim.RunCampaign(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	reportsIdentical(t, "resume", resumed, full)
}

// Weight-target campaigns cannot batch (weights are shared across rows);
// BatchSize must degrade to the serial path, not corrupt results.
func TestBatchedCampaignWeightTargetFallsBack(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(4)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FxP16(),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetWeight,
		Layer:      sim.WeightedLayers()[0],
		Injections: 12,
		Seed:       2,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		KeepTrace:  true,
	}
	serial, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.BatchSize = 6
	batched, err := sim.RunCampaign(context.Background(), bcfg)
	if err != nil {
		t.Fatal(err)
	}
	reportsIdentical(t, "weight-target", batched, serial)
}

// Pool.Batch is the campaign's default batch geometry when BatchSize is
// unset, and a campaign without a pool is rejected outright.
func TestEvalPoolCampaignGeometry(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(6)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.INT8(),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 10,
		Seed:       8,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.INT8()}},
		KeepTrace:  true,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
	}
	serial, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaPoolBatch := cfg
	viaPoolBatch.Pool = &goldeneye.EvalPool{X: x, Y: y, Batch: 4}
	batched, err := sim.RunCampaign(context.Background(), viaPoolBatch)
	if err != nil {
		t.Fatal(err)
	}
	reportsIdentical(t, "pool-batch", batched, serial)

	noPool := cfg
	noPool.Pool = nil
	if _, err := sim.RunCampaign(context.Background(), noPool); err == nil ||
		!strings.Contains(err.Error(), "requires an evaluation pool") {
		t.Fatalf("expected a missing-pool error, got %v", err)
	}
}

// A panic inside a batched pass must abort only the offending
// injection(s): the group falls back to serial per-injection execution,
// siblings are recorded normally, and the campaign completes in degraded
// mode with a full trace.
func TestBatchedCampaignPanicIsolation(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := goldeneye.CampaignConfig{
		Format:     &panicEveryN{Format: numfmt.FP16(true), n: 3, calls: new(atomic.Int64)},
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: 40,
		Seed:       23,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		BatchSize:  5,
		KeepTrace:  true,
	}
	rep, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatalf("degraded mode must not fail: %v", err)
	}
	if rep.Injections+rep.Aborted != 40 {
		t.Fatalf("recorded %d + aborted %d should cover all 40 injections", rep.Injections, rep.Aborted)
	}
	if rep.Aborted == 0 || rep.Aborted >= 20 {
		t.Fatalf("aborts should land on isolated injections, not whole batches: %d/40", rep.Aborted)
	}
	if len(rep.Trace) != 40 {
		t.Fatalf("trace should cover every injection, got %d", len(rep.Trace))
	}
	for i, out := range rep.Trace {
		if out.Aborted && (out.Mismatch || out.DeltaLoss != 0) {
			t.Fatalf("aborted outcome %d carries metrics: %+v", i, out)
		}
	}
}

// Batched campaigns publish batch telemetry: pass count, occupancy, and a
// throughput gauge; the per-injection counters keep their serial meaning.
func TestBatchedCampaignTelemetry(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	reg := telemetry.NewRegistry()
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.INT8(),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 22,
		Seed:       4,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.INT8()}},
		BatchSize:  8,
		Metrics:    reg,
	}
	if _, err := sim.RunCampaign(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(goldeneye.MetricCampaignInjections).Value(); got != 22 {
		t.Fatalf("injections counter = %d, want 22", got)
	}
	if got := reg.Counter(goldeneye.MetricCampaignBatches).Value(); got != 3 { // 8+8+6
		t.Fatalf("batches counter = %d, want 3", got)
	}
	if got := reg.Histogram(goldeneye.MetricCampaignLatency, nil).Count(); got != 22 {
		t.Fatalf("latency histogram count = %d, want 22 (per-injection accounting)", got)
	}
	occ := reg.Histogram(goldeneye.MetricCampaignOccupancy, nil)
	if occ.Count() != 3 {
		t.Fatalf("occupancy histogram count = %d, want 3", occ.Count())
	}
	if reg.Gauge(goldeneye.MetricCampaignRate).Value() <= 0 {
		t.Fatal("injections-per-second gauge not published")
	}
}
