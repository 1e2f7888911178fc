package goldeneye_test

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"goldeneye"
	"goldeneye/internal/numfmt"
)

// shardTestConfig is the campaign the shard-merge property tests slice up:
// small enough to run many shard counts, rich enough (detectors with a
// recovery policy, a trace, batching) that every merged field is exercised.
func shardTestConfig(t *testing.T, pool *testPool) goldeneye.CampaignConfig {
	t.Helper()
	x, y := pool.subset(16)
	specs, err := goldeneye.ParseDetectors("ranger,sentinel")
	if err != nil {
		t.Fatalf("detectors: %v", err)
	}
	rec, err := goldeneye.ParseRecovery("clamp")
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return goldeneye.CampaignConfig{
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
		Detectors:  specs,
		Recovery:   rec,
	}
}

// runShards executes every shard of cfg split k ways, serially, on one
// simulator — the way fleet nodes run them, just in-process.
func runShards(t *testing.T, sim *goldeneye.Simulator, cfg goldeneye.CampaignConfig, k int) []*goldeneye.CampaignReport {
	t.Helper()
	var reports []*goldeneye.CampaignReport
	for _, scfg := range goldeneye.ShardConfigs(cfg, k) {
		rep, err := sim.RunCampaign(context.Background(), scfg)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", scfg.ShardIndex, scfg.ShardCount, err)
		}
		reports = append(reports, rep)
	}
	return reports
}

// TestShardMergeProperty is the order-invariance property test: splitting a
// campaign into k shards and merging the reports in any permutation yields
// CampaignReport JSON byte-identical to a single-node run at the equal
// effective worker count (RunCampaignParallel with workers=k) — detector
// outcome counts, traces, and Welford moments included. This is the merge
// contract the fleet coordinator's byte-identity guarantee rests on.
func TestShardMergeProperty(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	cfg := shardTestConfig(t, pool)
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

		reports := runShards(t, sim, cfg, k)
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
				t.Fatalf("k=%d trial %d: merged report diverges from workers=%d run\nmerged: %s\nsingle: %s",
					k, trial, k, got, refJSON)
			}
		}
	}
}

// TestShardConfigsClamp pins the shard-count clamp: more shards than
// injections degrade to one shard per injection, and k<=1 yields a single
// unsharded config whose wire bytes match the original campaign's.
func TestShardConfigsClamp(t *testing.T) {
	cfg := goldeneye.CampaignConfig{Format: numfmt.FP16(true), Injections: 3, Seed: 7}
	if got := len(goldeneye.ShardConfigs(cfg, 8)); got != 3 {
		t.Fatalf("shards clamp: got %d, want 3", got)
	}
	single := goldeneye.ShardConfigs(cfg, 1)
	if len(single) != 1 || single[0].ShardCount != 0 || single[0].ShardIndex != 0 {
		t.Fatalf("k=1 should be unsharded, got %+v", single[0])
	}
	a, _ := json.Marshal(cfg)
	b, _ := json.Marshal(single[0])
	if string(a) != string(b) {
		t.Fatalf("unsharded single config changed wire bytes: %s vs %s", b, a)
	}
	for s, sc := range goldeneye.ShardConfigs(cfg, 3) {
		if sc.ShardIndex != s || sc.ShardCount != 3 {
			t.Fatalf("shard %d geometry wrong: %+v", s, sc)
		}
	}
}

// TestMergeShardReportsRejects pins the typed error on malformed merge
// sets: duplicates, gaps, foreign configs, and short sets all fail with a
// *ShardMergeError rather than producing a silently wrong report.
func TestMergeShardReportsRejects(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	cfg := shardTestConfig(t, pool)
	cfg.Layer = sim.InjectableLayers()[1]
	cfg.Injections = 12
	reports := runShards(t, sim, cfg, 3)

	wantMergeErr := func(name string, set []*goldeneye.CampaignReport) {
		t.Helper()
		_, err := goldeneye.MergeShardReports(set)
		var me *goldeneye.ShardMergeError
		if !errors.As(err, &me) {
			t.Fatalf("%s: want *ShardMergeError, got %v", name, err)
		}
	}
	wantMergeErr("empty", nil)
	wantMergeErr("nil entry", []*goldeneye.CampaignReport{reports[0], nil, reports[2]})
	wantMergeErr("short set", reports[:2])
	wantMergeErr("duplicate index", []*goldeneye.CampaignReport{reports[0], reports[0], reports[2]})

	foreign := *reports[1]
	foreign.Config.Seed++
	wantMergeErr("foreign config", []*goldeneye.CampaignReport{reports[0], &foreign, reports[2]})

	// An under-executed shard (wrong injection count for its slice) is the
	// signature of a truncated report; the merge must refuse it.
	short := *reports[1]
	short.Config = reports[1].Config
	short.CampaignResult.Injections--
	wantMergeErr("short shard", []*goldeneye.CampaignReport{reports[0], &short, reports[2]})
}
