package goldeneye_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/metrics"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/sampling"
	"goldeneye/internal/telemetry"
)

// TestSampledFractionOneByteIdenticalAllFamilies is the degeneracy property
// of the golden matrix: a sampling plan at fraction 1.0 with pruning off is
// inert, so the campaign must produce a report byte-identical — wire bytes
// included — to the exhaustive one, for every format family × site.
func TestSampledFractionOneByteIdenticalAllFamilies(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
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
	layer := sim.InjectableLayers()[1]
	for _, f := range formats {
		sites := []inject.Site{goldeneye.SiteValue}
		if inject.MetaBitWidth(f) > 0 {
			sites = append(sites, goldeneye.SiteMetadata)
		}
		for _, site := range sites {
			cfg := goldeneye.CampaignConfig{
				Format:     f,
				Site:       site,
				Target:     goldeneye.TargetNeuron,
				Layer:      layer,
				Injections: 17,
				Seed:       11,
				Pool:       &goldeneye.EvalPool{X: x, Y: y},
				UseRanger:  true,
				Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: f}},
				KeepTrace:  true,
			}
			exhaustive, err := sim.RunCampaign(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s/%s exhaustive: %v", f.Name(), site, err)
			}
			scfg := cfg
			scfg.Sampling = &sampling.Plan{Fraction: 1}
			sampled, err := sim.RunCampaign(context.Background(), scfg)
			if err != nil {
				t.Fatalf("%s/%s sampled: %v", f.Name(), site, err)
			}
			want, _ := json.Marshal(exhaustive)
			got, _ := json.Marshal(sampled)
			if string(got) != string(want) {
				t.Fatalf("%s/%s: fraction-1.0 report diverges from exhaustive\nsampled: %s\nexhaust: %s",
					f.Name(), site, got, want)
			}
		}
	}
}

// An active plan at fraction 1.0 (per-stratum overrides present, all 1.0)
// executes the whole fault space: the campaign aggregates and trace faults
// match the exhaustive run exactly, and the estimator reproduces the
// exhaustive mismatch rate.
func TestSampledActivePlanFullFractionMatchesExhaustive(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP8E4M3(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: 30,
		Seed:       42,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		UseRanger:  true,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP8E4M3(true)}},
		KeepTrace:  true,
	}
	exhaustive, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Sampling = &sampling.Plan{Fraction: 1, Strata: map[string]float64{"sign": 1}}
	sampled, err := sim.RunCampaign(context.Background(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Injections != exhaustive.Injections || sampled.Mismatches != exhaustive.Mismatches ||
		sampled.DeltaLoss != exhaustive.DeltaLoss {
		t.Fatalf("full-fraction active plan diverges: %+v vs %+v",
			sampled.CampaignResult, exhaustive.CampaignResult)
	}
	if len(sampled.Trace) != len(exhaustive.Trace) {
		t.Fatalf("trace length %d vs %d", len(sampled.Trace), len(exhaustive.Trace))
	}
	for i := range exhaustive.Trace {
		if sampled.Trace[i].Fault != exhaustive.Trace[i].Fault {
			t.Fatalf("trace fault diverges at %d", i)
		}
		if sampled.Trace[i].Index != i {
			t.Fatalf("sampled trace entry %d carries index %d", i, sampled.Trace[i].Index)
		}
	}
	sr := sampled.Sampling
	if sr == nil {
		t.Fatal("active plan produced no estimator report")
	}
	if sr.FaultSpace() != cfg.Injections || sr.ExecutedTotal()+sr.AbortedTotal() != cfg.Injections {
		t.Fatalf("full-fraction dispatch: space=%d executed=%d aborted=%d of %d",
			sr.FaultSpace(), sr.ExecutedTotal(), sr.AbortedTotal(), cfg.Injections)
	}
	if got, want := sr.SDCRate(), exhaustive.MismatchRate(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("full-fraction SDC estimate %v, exhaustive rate %v", got, want)
	}
}

// TestSampledShardMergePermutation is the sampled mirror of the PR 9 merge
// property: per-stratum moments merged in any shard order produce a report
// — CI bounds included — byte-identical to the single-node parallel run at
// workers=k.
func TestSampledShardMergePermutation(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(16)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.BFPe5m5(),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Injections: 60,
		Seed:       1234,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		BatchSize:  4,
		UseRanger:  true,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.BFPe5m5()}},
		KeepTrace:  true,
		Sampling:   &sampling.Plan{Fraction: 0.5},
	}
	cfg.Layer = sim.InjectableLayers()[1]

	for _, k := range []int{1, 2, 3, 5, 7} {
		ref, err := goldeneye.RunCampaignParallel(context.Background(), cfg, k, mlpBuilder(t))
		if err != nil {
			t.Fatalf("k=%d reference: %v", k, err)
		}
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatalf("k=%d marshal reference: %v", k, err)
		}
		if ref.Sampling == nil || ref.Sampling.FaultSpace() != cfg.Injections {
			t.Fatalf("k=%d: estimator covers %v of %d", k, ref.Sampling, cfg.Injections)
		}

		var reports []*goldeneye.CampaignReport
		for _, scfg := range goldeneye.ShardConfigs(cfg, k) {
			rep, serr := sim.RunCampaign(context.Background(), scfg)
			if serr != nil {
				t.Fatalf("k=%d shard %d: %v", k, scfg.ShardIndex, serr)
			}
			reports = append(reports, rep)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 4; trial++ {
			perm := make([]*goldeneye.CampaignReport, len(reports))
			copy(perm, reports)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			merged, err := goldeneye.MergeShardReports(perm)
			if err != nil {
				t.Fatalf("k=%d trial %d: merge: %v", k, trial, err)
			}
			got, err := json.Marshal(merged)
			if err != nil {
				t.Fatalf("k=%d trial %d: marshal merged: %v", k, trial, err)
			}
			if string(got) != string(refJSON) {
				t.Fatalf("k=%d trial %d: sampled merge diverges from workers=%d run\nmerged: %s\nsingle: %s",
					k, trial, k, got, refJSON)
			}
			if g, w := merged.Sampling.CIHalfWidth(), ref.Sampling.CIHalfWidth(); g != w &&
				!(math.IsInf(g, 1) && math.IsInf(w, 1)) {
				t.Fatalf("k=%d trial %d: CI half-width %v vs %v", k, trial, g, w)
			}
		}
	}
}

// Analytic pruning on a metadata-free format: the estimator accounts the
// whole fault space, pruned indices cost no forward pass, and pruned mass
// contributes zero to the SDC estimate.
func TestSampledPruneAccountsFullFaultSpace(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP8E4M3(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: 40,
		Seed:       9,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		UseRanger:  true,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP8E4M3(true)}},
		Sampling:   &sampling.Plan{Fraction: 1, Prune: true},
	}
	rep, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.Sampling
	if sr == nil {
		t.Fatal("prune plan produced no estimator report")
	}
	if sr.FaultSpace() != cfg.Injections {
		t.Fatalf("estimator covers %d of %d", sr.FaultSpace(), cfg.Injections)
	}
	if got := sr.ExecutedTotal() + sr.PrunedTotal() + sr.SkippedTotal() + sr.AbortedTotal(); got != cfg.Injections {
		t.Fatalf("dispatch does not cover the fault space: %d of %d", got, cfg.Injections)
	}
	if rep.Injections+rep.Aborted != sr.ExecutedTotal()+sr.AbortedTotal() {
		t.Fatalf("campaign executed %d but estimator observed %d",
			rep.Injections+rep.Aborted, sr.ExecutedTotal()+sr.AbortedTotal())
	}
	if rate := sr.SDCRate(); math.IsNaN(rate) || rate < 0 || rate > 1 {
		t.Fatalf("SDC estimate %v outside [0,1]", rate)
	}
}

// The pruning preconditions are validated up front: burst faults, metadata
// formats wider than the brute-force bound, and campaigns without ranger
// calibration are rejected with a typed ConfigError.
func TestSampledPruneRequiresRanger(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(4)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP8E4M3(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 5,
		Seed:       1,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP8E4M3(true)}},
		Sampling:   &sampling.Plan{Fraction: 1, Prune: true},
	}
	if _, err := sim.RunCampaign(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "UseRanger") {
		t.Fatalf("prune without ranger calibration should fail, got %v", err)
	}
	mcfg := cfg
	mcfg.UseRanger = true
	mcfg.Format = numfmt.INT8() // scale metadata: not analytically prunable
	if _, err := sim.RunCampaign(context.Background(), mcfg); err == nil {
		t.Fatal("prune on a metadata format should fail")
	}
}

// TestSampledTargetCIStopsEarly is the headline acceptance criterion: a
// sequentially-stopped campaign reaches a CI-bounded SDC estimate with at
// most 20% of the exhaustive injection count, and the exhaustive rate lies
// within the reported interval of the estimate.
func TestSampledTargetCIStopsEarly(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP8E4M3(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: 400,
		Seed:       7,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		// No ranger: raw fault impact keeps the SDC rate away from zero.
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP8E4M3(true)}},
	}
	exhaustive, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	scfg := cfg
	scfg.Sampling = &sampling.Plan{Fraction: 1, TargetCI: 0.3, CheckEvery: 64}
	reg := telemetry.NewRegistry()
	scfg.Metrics = reg
	sampled, err := sim.RunCampaign(context.Background(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	sr := sampled.Sampling
	if sr == nil {
		t.Fatal("target-ci campaign produced no estimator report")
	}
	if sr.StopIndex == 0 {
		t.Fatalf("campaign never stopped early: CI half-width %v", sr.CIHalfWidth())
	}
	executed := sr.ExecutedTotal() + sr.AbortedTotal()
	if limit := cfg.Injections / 5; executed > limit {
		t.Fatalf("sampled campaign executed %d injections, want <= %d (20%% of exhaustive)", executed, limit)
	}
	hw := sr.CIHalfWidth()
	if math.IsInf(hw, 0) || hw > scfg.Sampling.TargetCI {
		t.Fatalf("stopped with CI half-width %v, target %v", hw, scfg.Sampling.TargetCI)
	}
	if delta := math.Abs(sr.SDCRate() - exhaustive.MismatchRate()); delta > hw {
		t.Fatalf("estimate %v is %v from the exhaustive rate %v, outside the ±%v interval",
			sr.SDCRate(), delta, exhaustive.MismatchRate(), hw)
	}
	if got := reg.Gauge(goldeneye.MetricSamplingStopIndex).Value(); int(got) != sr.StopIndex {
		t.Fatalf("stop-index gauge %v, report says %d", got, sr.StopIndex)
	}
	if got := reg.Counter(goldeneye.MetricSamplingExecuted).Value(); got != int64(sr.ExecutedTotal()) {
		t.Fatalf("executed counter %d, report says %d", got, sr.ExecutedTotal())
	}

	// The parallel driver reaches the same stop decision through the review
	// barrier and merges to the same dispatch accounting.
	par, err := goldeneye.RunCampaignParallel(context.Background(), scfg, 3, mlpBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if par.Sampling == nil || par.Sampling.StopIndex != sr.StopIndex {
		t.Fatalf("parallel stop index %v, serial stopped at %d", par.Sampling, sr.StopIndex)
	}
	if par.Sampling.FaultSpace() != sr.FaultSpace() ||
		par.Sampling.ExecutedTotal() != sr.ExecutedTotal() {
		t.Fatalf("parallel dispatch (space %d, executed %d) diverges from serial (space %d, executed %d)",
			par.Sampling.FaultSpace(), par.Sampling.ExecutedTotal(), sr.FaultSpace(), sr.ExecutedTotal())
	}
}

// Sampled campaigns compose with the incompatible-feature guards: Resume
// and sharded TargetCI are rejected up front.
func TestSampledCampaignGuards(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(4)
	base := goldeneye.CampaignConfig{
		Format:     numfmt.FP8E4M3(true),
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 10,
		Seed:       1,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP8E4M3(true)}},
	}

	resumed := base
	resumed.Sampling = &sampling.Plan{Fraction: 0.5}
	resumed.Resume = &goldeneye.CampaignReport{CampaignResult: metrics.CampaignResult{Injections: 2}}
	if _, err := sim.RunCampaign(context.Background(), resumed); err == nil {
		t.Fatal("sampled resume should be rejected")
	}

	sharded := base
	sharded.Sampling = &sampling.Plan{Fraction: 1, TargetCI: 0.1}
	sharded.ShardIndex, sharded.ShardCount = 0, 2
	if _, err := sim.RunCampaign(context.Background(), sharded); err == nil {
		t.Fatal("sharded sequential stopping should be rejected")
	}

	invalid := base
	invalid.Sampling = &sampling.Plan{Fraction: 0}
	if _, err := sim.RunCampaign(context.Background(), invalid); err == nil {
		t.Fatal("zero sampling fraction should be rejected")
	}
}

// ParseSamplingPlan maps CLI inputs to plans: exhaustive inputs yield nil,
// stratum overrides parse, and malformed overrides fail.
func TestParseSamplingPlan(t *testing.T) {
	if plan, err := goldeneye.ParseSamplingPlan(1, "", false, 0, 0); err != nil || plan != nil {
		t.Fatalf("exhaustive inputs: plan=%v err=%v", plan, err)
	}
	plan, err := goldeneye.ParseSamplingPlan(0.1, "exponent=1,mantissa=0.05", true, 0.01, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fraction != 0.1 || plan.Strata["exponent"] != 1 || plan.Strata["mantissa"] != 0.05 ||
		!plan.Prune || plan.Epsilon != 0.01 || plan.TargetCI != 0.02 {
		t.Fatalf("parsed plan %+v", plan)
	}
	if _, err := goldeneye.ParseSamplingPlan(0.5, "exponent", false, 0, 0); err == nil {
		t.Fatal("malformed stratum override should fail")
	}
	if _, err := goldeneye.ParseSamplingPlan(2, "", false, 0, 0); err == nil {
		t.Fatal("fraction > 1 should fail")
	}
}
