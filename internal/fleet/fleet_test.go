package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"goldeneye"
	"goldeneye/internal/chaos"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
)

// testSpec is the tiny mlp campaign the fleet tests shard: small enough
// that a three-node fleet finishes in a couple of seconds, big enough
// that every node gets work.
func testSpec(t *testing.T) *server.JobSpec {
	t.Helper()
	f, err := goldeneye.ParseFormat("fp16")
	if err != nil {
		t.Fatal(err)
	}
	return &server.JobSpec{
		Model:     "mlp",
		Samples:   16,
		EvalBatch: 8,
		Campaign: goldeneye.CampaignConfig{
			Format:     f,
			Injections: 6,
			Seed:       9,
			Layer:      1,
		},
	}
}

// startDaemon boots one in-process campaign daemon and returns its base
// URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.Options{StreamInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts.URL
}

// fastOpts returns fleet options tuned for tests: quick quarantine
// cycles, a small retry budget so dead nodes fail fast, and a short lease.
func fastOpts() Options {
	return Options{
		LeaseTimeout:   10 * time.Second,
		QuarantineBase: 20 * time.Millisecond,
		QuarantineMax:  200 * time.Millisecond,
		LostAfter:      2,
		Client: client.Options{
			RequestTimeout: 5 * time.Second,
			MaxAttempts:    2,
			BaseBackoff:    10 * time.Millisecond,
			MaxBackoff:     50 * time.Millisecond,
		},
		Logf: func(string, ...interface{}) {},
	}
}

// reportJSON canonicalizes a report for byte comparison.
func reportJSON(t *testing.T, rep *goldeneye.CampaignReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// singleNodeReference runs spec on one daemon at the given worker count
// and returns its report — the bytes the fleet's merged report must match.
func singleNodeReference(t *testing.T, spec *server.JobSpec, workers int) *goldeneye.CampaignReport {
	t.Helper()
	addr := startDaemon(t)
	ref := *spec
	ref.Workers = workers
	cli := client.New(addr)
	rep, err := cli.Run(context.Background(), &ref, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return rep
}

// TestFleetByteIdentity is the healthy-path contract: a three-node fleet
// produces a merged report byte-identical to one daemon running the same
// campaign at workers=3 (equal effective worker counts), with no shard
// reassigned, stolen, or replayed.
func TestFleetByteIdentity(t *testing.T) {
	spec := testSpec(t)
	want := reportJSON(t, singleNodeReference(t, spec, 3))

	addrs := []string{startDaemon(t), startDaemon(t), startDaemon(t)}
	c, err := New(addrs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var lastDone, lastTotal int
	rep, err := c.Run(context.Background(), spec, func(done, total int) {
		lastDone, lastTotal = done, total
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if got := reportJSON(t, rep.CampaignReport); got != want {
		t.Fatalf("fleet report diverges from single-node workers=3 run\nfleet:  %s\nsingle: %s", got, want)
	}
	if rep.Degraded {
		t.Fatal("healthy fleet finished degraded")
	}
	if rep.Stats.Shards != 3 || rep.Stats.Reassigned != 0 || rep.Stats.Stolen != 0 || rep.Stats.Replayed != 0 {
		t.Fatalf("healthy fleet stats show robustness events: %+v", rep.Stats)
	}
	if lastDone != spec.Campaign.Injections || lastTotal != spec.Campaign.Injections {
		t.Fatalf("progress ended at %d/%d, want %d/%d", lastDone, lastTotal,
			spec.Campaign.Injections, spec.Campaign.Injections)
	}
}

// TestFleetSurvivesDeadNode kills one node's transport before the run: the
// fleet reassigns its shards to the survivors, declares it lost, and still
// delivers the byte-identical report, marked degraded.
func TestFleetSurvivesDeadNode(t *testing.T) {
	spec := testSpec(t)
	want := reportJSON(t, singleNodeReference(t, spec, 3))

	// A proxy whose backend refuses connections: the node is routable but
	// dead, the same failure shape as a SIGKILLed daemon.
	dead, err := chaos.NewProxy("127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()

	// The live nodes sit behind stalled proxies until the coordinator
	// declares the dead node lost: their shards finish in milliseconds,
	// and the campaign must not end before the dead node crosses
	// LostAfter.
	var live []*chaos.Proxy
	for range 2 {
		p, err := chaos.NewProxy(strings.TrimPrefix(startDaemon(t), "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.Stall()
		live = append(live, p)
	}
	release := sync.OnceFunc(func() {
		for _, p := range live {
			p.Unstall()
		}
	})
	defer release()
	opts := fastOpts()
	opts.Logf = func(format string, args ...interface{}) {
		if strings.Contains(format, "declared lost") {
			release()
		}
	}

	addrs := []string{live[0].URL(), dead.URL(), live[1].URL()}
	c, err := New(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("fleet run with dead node: %v", err)
	}
	if got := reportJSON(t, rep.CampaignReport); got != want {
		t.Fatalf("degraded fleet report diverges from single-node run\nfleet:  %s\nsingle: %s", got, want)
	}
	if !rep.Degraded {
		t.Fatal("fleet lost a node but did not mark the report degraded")
	}
	if len(rep.Stats.NodesLost) != 1 || rep.Stats.NodesLost[0] != dead.URL() {
		t.Fatalf("lost nodes = %v, want [%s]", rep.Stats.NodesLost, dead.URL())
	}
}

// TestFleetPartitionMidRun partitions one node mid-campaign (its proxy
// stops forwarding and drops active connections): the lease or transport
// error reassigns its shard and the merged report still matches the
// unfailed single-node run byte for byte.
func TestFleetPartitionMidRun(t *testing.T) {
	spec := testSpec(t)
	spec.Campaign.Injections = 8
	want := reportJSON(t, singleNodeReference(t, spec, 2))

	backend := startDaemon(t)
	proxy, err := chaos.NewProxy(strings.TrimPrefix(backend, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	opts := fastOpts()
	opts.Shards = 2
	opts.LeaseTimeout = 2 * time.Second // partitioned SSE streams stall; cut them fast
	c, err := New([]string{startDaemon(t), proxy.URL()}, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Partition the proxied node as soon as the campaign makes progress.
	partitioned := make(chan struct{})
	var once bool
	rep, err := c.Run(context.Background(), spec, func(done, total int) {
		if !once && done > 0 {
			once = true
			proxy.SetTarget("127.0.0.1:1")
			proxy.DropActive()
			close(partitioned)
		}
	})
	if err != nil {
		t.Fatalf("fleet run with partition: %v", err)
	}
	select {
	case <-partitioned:
	default:
		t.Log("campaign finished before the partition fired; rerun covers nothing new")
	}
	if got := reportJSON(t, rep.CampaignReport); got != want {
		t.Fatalf("post-partition report diverges from single-node run\nfleet:  %s\nsingle: %s", got, want)
	}
}

// TestFleetInsufficientNodes pins the graceful-degradation floor: when the
// healthy fleet shrinks below MinNodes the run fails promptly with a typed
// *InsufficientFleetError instead of hanging or panicking.
func TestFleetInsufficientNodes(t *testing.T) {
	spec := testSpec(t)
	opts := fastOpts()
	opts.MinNodes = 2

	dead1, err := chaos.NewProxy("127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	defer dead1.Close()
	dead2, err := chaos.NewProxy("127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	defer dead2.Close()

	c, err := New([]string{dead1.URL(), dead2.URL()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = c.Run(ctx, spec, nil)
	var insuff *InsufficientFleetError
	if !errors.As(err, &insuff) {
		t.Fatalf("want *InsufficientFleetError, got %v", err)
	}
	if insuff.Healthy >= opts.MinNodes {
		t.Fatalf("error reports %d healthy, expected below minimum %d", insuff.Healthy, opts.MinNodes)
	}
	if ctx.Err() != nil {
		t.Fatal("run only failed once the test deadline expired; it must fail on its own")
	}
}

// TestFleetIdempotentReplay proves shard dispatches are idempotent across
// coordinator restarts: a second coordinator re-running the same campaign
// against the same daemon is answered entirely from the daemon's
// idempotency index — every shard replayed, none re-executed — with the
// identical report.
func TestFleetIdempotentReplay(t *testing.T) {
	spec := testSpec(t)
	addr := startDaemon(t)
	opts := fastOpts()
	opts.Shards = 2

	c1, err := New([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := c1.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if rep1.Stats.Replayed != 0 {
		t.Fatalf("first run replayed %d shards, want 0", rep1.Stats.Replayed)
	}

	// A fresh coordinator derives the same deterministic shard keys.
	c2, err := New([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := c2.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("replayed run: %v", err)
	}
	if rep2.Stats.Replayed != 2 {
		t.Fatalf("replayed run served %d shards idempotently, want 2", rep2.Stats.Replayed)
	}
	if a, b := reportJSON(t, rep1.CampaignReport), reportJSON(t, rep2.CampaignReport); a != b {
		t.Fatalf("replayed report diverges:\nfirst:  %s\nsecond: %s", a, b)
	}
}

// TestCoordinatorRunSerializes calls Run concurrently on one coordinator:
// each campaign must still merge to its single-node report, and the race
// detector must stay quiet.
func TestCoordinatorRunSerializes(t *testing.T) {
	specs := []*server.JobSpec{testSpec(t), testSpec(t)}
	specs[1].Campaign.Seed = 10
	c, err := New([]string{startDaemon(t), startDaemon(t)}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Report, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = c.Run(context.Background(), spec, nil)
		}()
	}
	wg.Wait()
	for i, spec := range specs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got, want := reportJSON(t, reps[i].CampaignReport), reportJSON(t, singleNodeReference(t, spec, 2)); got != want {
			t.Fatalf("run %d diverges from single-node run\nfleet:  %s\nsingle: %s", i, got, want)
		}
	}
}

// TestCoordinatorRunWaitHonoursContext pins that a Run queued behind
// another campaign gives up when its context ends instead of waiting for
// the campaign ahead to finish.
func TestCoordinatorRunWaitHonoursContext(t *testing.T) {
	c, err := New([]string{"http://127.0.0.1:1"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.running <- struct{}{} // a campaign is running
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Run(ctx, testSpec(t), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Run = %v, want context.DeadlineExceeded", err)
	}
}

// TestFleetRejects pins the coordinator's input contract: pre-sharded
// specs and parallel worker requests are configuration errors.
func TestFleetRejects(t *testing.T) {
	c, err := New([]string{"http://127.0.0.1:1"}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var ce *goldeneye.ConfigError

	sharded := testSpec(t)
	sharded.Campaign.ShardIndex, sharded.Campaign.ShardCount = 1, 2
	if _, err := c.Run(context.Background(), sharded, nil); !errors.As(err, &ce) {
		t.Fatalf("pre-sharded spec: want *ConfigError, got %v", err)
	}

	parallel := testSpec(t)
	parallel.Workers = 4
	if _, err := c.Run(context.Background(), parallel, nil); !errors.As(err, &ce) {
		t.Fatalf("workers>1 spec: want *ConfigError, got %v", err)
	}

	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New([]string{"http://a", "http://a"}, Options{}); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

// TestInjectNodeLabel pins the /metrics rollup rewriter on the exposition
// shapes internal/telemetry emits.
func TestInjectNodeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{`goldeneye_faults_total 12`, `goldeneye_faults_total{node="http://n1"} 12`},
		{`goldeneye_jobs_total{state="done"} 3`, `goldeneye_jobs_total{node="http://n1",state="done"} 3`},
		{`goldeneye_latency_bucket{le="0.5"} 9`, `goldeneye_latency_bucket{node="http://n1",le="0.5"} 9`},
	}
	for _, tc := range cases {
		if got := injectNodeLabel(tc.in, "http://n1"); got != tc.want {
			t.Errorf("injectNodeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
