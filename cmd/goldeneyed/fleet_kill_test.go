package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"goldeneye/internal/chaos"
	"goldeneye/internal/fleet"
	"goldeneye/internal/sampling"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
)

// fleetOpts tunes the coordinator for chaos tests: fast failure detection
// so a killed or partitioned node is discovered in milliseconds, not
// minutes.
func fleetOpts(shards int) fleet.Options {
	return fleet.Options{
		Shards:         shards,
		MinNodes:       1,
		LeaseTimeout:   5 * time.Second,
		QuarantineBase: 50 * time.Millisecond,
		QuarantineMax:  500 * time.Millisecond,
		LostAfter:      2,
		Client: client.Options{
			RequestTimeout: 10 * time.Second,
			MaxAttempts:    3,
			BaseBackoff:    20 * time.Millisecond,
			MaxBackoff:     200 * time.Millisecond,
		},
	}
}

// TestFleetSurvivesKillAndPartition is the fleet chaos acceptance gate: a
// three-daemon fleet runs one campaign; mid-run one daemon is SIGKILLed
// and another is network-partitioned (its chaos proxy stops forwarding).
// The fleet must finish on the survivor with a merged report byte-identical
// to an unfailed single-node run at the equal effective worker count, and
// a follow-up coordinator over the survivor must be answered entirely from
// the daemon's idempotency index — proving completed shards are replayed,
// never re-executed.
//
// Both doomed daemons sit behind chaos proxies that hold back their replies
// from the start: they receive and run their shards, but nothing they
// answer reaches the coordinator before the chaos, so however fast the
// engine runs a shard, every shard completes on the survivor.
func TestFleetSurvivesKillAndPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	const shards = 3
	spec := killSpec(t, 71, 9000) // 3000 injections per shard

	victim, victimBase := spawnDaemon(t, "-addr", "127.0.0.1:0")
	_, partitionedBase := spawnDaemon(t, "-addr", "127.0.0.1:0")
	_, survivorBase := spawnDaemon(t, "-addr", "127.0.0.1:0")

	// The partitioned daemon's "network" fails while the process stays
	// alive and keeps burning its shard.
	var doomed []*chaos.Proxy
	for _, base := range []string{victimBase, partitionedBase} {
		proxy, err := chaos.NewProxy(strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		proxy.StallReplies()
		doomed = append(doomed, proxy)
	}

	co, err := fleet.New([]string{doomed[0].URL(), doomed[1].URL(), survivorBase}, fleetOpts(shards))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Unleash the chaos once the campaign is under way: the progress can
	// only be the survivor's. The proxies are pointed at a dead port and
	// their connections cut — dropping the replies the stall held back —
	// before forwarding resumes.
	var once sync.Once
	chaosFired := make(chan struct{})
	rep, err := co.Run(ctx, spec, func(done, total int) {
		if done > 100 {
			once.Do(func() {
				go func() {
					defer close(chaosFired)
					if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
						t.Errorf("kill victim: %v", err)
					}
					victim.Wait()
					for _, p := range doomed {
						p.SetTarget("127.0.0.1:1") // partition: nothing forwards anymore
						p.DropActive()
						p.Unstall()
					}
				}()
			})
		}
	})
	if err != nil {
		t.Fatalf("fleet run did not survive the chaos: %v", err)
	}
	select {
	case <-chaosFired:
	case <-time.After(time.Second):
		t.Fatal("campaign finished before the chaos fired; raise the injection count")
	}
	if !rep.Degraded {
		t.Error("fleet lost two nodes but the report is not marked degraded")
	}
	if rep.Stats.Reassigned == 0 {
		t.Error("no shard was reassigned despite a kill and a partition")
	}
	if len(rep.Stats.NodesLost) == 0 {
		t.Error("no node recorded as lost")
	}

	// Byte-identity against an unfailed single-node run at the equal
	// effective worker count (workers = shard count).
	_, refBase := spawnDaemon(t, "-addr", "127.0.0.1:0")
	refSpec := *spec
	refSpec.Workers = shards
	want, err := client.New(refBase).Run(ctx, &refSpec, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, _ := json.Marshal(rep.CampaignReport)
	wantJSON, _ := json.Marshal(want)
	if string(got) != string(wantJSON) {
		t.Fatalf("chaos-run report differs from unfailed single-node run:\nfleet:  %s\nsingle: %s", got, wantJSON)
	}

	// Idempotent-replay proof: the survivor executed every shard (the
	// victim died and the partitioned node was unreachable at delivery
	// time), so a fresh coordinator re-running the identical campaign
	// against it alone derives the same deterministic shard keys and is
	// answered entirely from the idempotency index — zero re-executions.
	co2, err := fleet.New([]string{survivorBase}, fleetOpts(shards))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := co2.Run(ctx, spec, nil)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if rep2.Stats.Replayed != shards {
		t.Errorf("replay run re-executed shards: replayed %d of %d", rep2.Stats.Replayed, shards)
	}
	got2, _ := json.Marshal(rep2.CampaignReport)
	if string(got2) != string(wantJSON) {
		t.Fatalf("replayed report differs from unfailed run:\n%s\n%s", got2, wantJSON)
	}
}

// TestFleetCoordinatorModeE2E boots goldeneyed in -fleet coordinator mode
// over two real daemons and drives it with the stock client: the
// coordinator serves the single-daemon job API while sharding underneath.
func TestFleetCoordinatorModeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	_, node1 := spawnDaemon(t, "-addr", "127.0.0.1:0")
	_, node2 := spawnDaemon(t, "-addr", "127.0.0.1:0")
	_, coordBase := spawnDaemon(t, "-addr", "127.0.0.1:0", "-fleet", node1+","+node2)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	spec := killSpec(t, 72, 200)

	cli := client.New(coordBase)
	if err := cli.Ready(ctx); err != nil {
		t.Fatalf("coordinator not ready: %v", err)
	}
	rep, err := cli.Run(ctx, spec, nil)
	if err != nil {
		t.Fatalf("run via coordinator: %v", err)
	}

	refSpec := *spec
	refSpec.Workers = 2
	want, err := client.New(node1).Run(ctx, &refSpec, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, _ := json.Marshal(rep)
	wantJSON, _ := json.Marshal(want)
	if string(got) != string(wantJSON) {
		t.Fatalf("coordinator-mode report differs from single-node workers=2 run:\n%s\n%s", got, wantJSON)
	}

	// The coordinator rejects at submit what it cannot shard-merge.
	for _, tc := range []struct {
		name string
		edit func(*server.JobSpec)
	}{
		{"sharded", func(s *server.JobSpec) { s.Campaign.ShardIndex, s.Campaign.ShardCount = 1, 2 }},
		{"workers>1", func(s *server.JobSpec) { s.Workers = 4 }},
		{"target-ci", func(s *server.JobSpec) { s.Campaign.Sampling = &sampling.Plan{Fraction: 1, TargetCI: 0.1} }},
	} {
		bad := killSpec(t, 73, 100)
		tc.edit(bad)
		if _, err := cli.Submit(ctx, bad); err == nil {
			t.Errorf("%s: coordinator accepted the spec", tc.name)
		} else {
			var api *client.APIError
			if !errors.As(err, &api) || api.StatusCode != 400 {
				t.Errorf("%s: want 400 APIError, got %v", tc.name, err)
			}
		}
	}
}

// TestFleetCoordinatorKillRecovers is the coordinator's own chaos gate: a
// journaling coordinator over two daemons is SIGKILLed once a shard of its
// campaign has finished, then restarted over the same journal. The same
// job ID must finish with a report byte-identical to one node at
// workers = shard count, and the restarted coordinator must replay the
// completed shards from the nodes' idempotency indexes, not re-execute
// them.
func TestFleetCoordinatorKillRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	const shards = 4
	_, node1 := spawnDaemon(t, "-addr", "127.0.0.1:0")
	_, node2 := spawnDaemon(t, "-addr", "127.0.0.1:0")
	coordArgs := []string{"-addr", "127.0.0.1:0", "-journal-dir", t.TempDir(),
		"-fleet", node1 + "," + node2, "-fleet-shards", fmt.Sprint(shards)}
	coord, coordBase := spawnDaemon(t, coordArgs...)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	spec := killSpec(t, 74, 8000) // 2000 injections per shard, two shards per node
	cli := client.New(coordBase)
	st, err := cli.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for metricValue(t, coordBase, fleet.MetricShardsDone) < 1 {
		if ctx.Err() != nil {
			t.Fatal("no shard finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if cur, err := cli.Job(ctx, st.ID); err != nil || cur.State.Terminal() {
		t.Fatalf("job must still be running at the kill: %+v, %v (raise the injection count)", cur, err)
	}
	if err := coord.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	coord.Wait()

	_, coordBase2 := spawnDaemon(t, coordArgs...)
	rep, err := client.New(coordBase2).Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("job %s did not survive the coordinator kill: %v", st.ID, err)
	}
	if replays := metricValue(t, coordBase2, fleet.MetricReplays); replays < 1 {
		t.Errorf("restarted coordinator replayed %v shards, want >= 1", replays)
	}

	refSpec := *spec
	refSpec.Workers = shards
	want, err := client.New(node1).Run(ctx, &refSpec, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, _ := json.Marshal(rep)
	wantJSON, _ := json.Marshal(want)
	if string(got) != string(wantJSON) {
		t.Fatalf("recovered fleet report differs from single-node workers=%d run:\n%s\n%s", shards, got, wantJSON)
	}
}

// metricValue reads one unlabeled sample from a daemon's /metrics (0 when
// absent).
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return f
		}
	}
	return 0
}
