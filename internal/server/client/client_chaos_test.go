package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goldeneye"
	"goldeneye/internal/chaos"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
	"goldeneye/internal/telemetry"
)

// startDaemonRaw is startDaemon without a canned client: chaos tests build
// their own clients with injected transports or proxies in between.
func startDaemonRaw(t *testing.T, opts server.Options) (*server.Server, string) {
	t.Helper()
	if opts.StreamInterval == 0 {
		opts.StreamInterval = 5 * time.Millisecond
	}
	s, err := server.New(opts)
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
	return s, ts.URL
}

func chaosSpec(t *testing.T, seed uint64, injections int) *server.JobSpec {
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
			Injections: injections,
			Seed:       seed,
			Layer:      1,
		},
	}
}

// TestSubmitRetriesTransportFailures: injected connection failures on the
// first attempts are absorbed by the retry loop and the job still runs
// exactly once.
func TestSubmitRetriesTransportFailures(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, url := startDaemonRaw(t, server.Options{Registry: reg})
	ft := chaos.Flaky(2)
	c := client.NewWithOptions(url, client.Options{
		Transport:   ft,
		BaseBackoff: 5 * time.Millisecond,
		MaxAttempts: 5,
	})

	rep, err := c.Run(context.Background(), chaosSpec(t, 31, 4), nil)
	if err != nil {
		t.Fatalf("run through flaky transport: %v", err)
	}
	if rep.Injections != 4 {
		t.Errorf("report injections: %d", rep.Injections)
	}
	if ft.Failed() != 2 {
		t.Errorf("injected failures consumed: %d, want 2", ft.Failed())
	}
	retries := c.Registry().Counter(telemetry.Label(client.MetricRetries, "op", "submit")).Value()
	if retries != 2 {
		t.Errorf("submit retries counted: %d, want 2", retries)
	}
	done := reg.Counter(telemetry.Label(server.MetricJobsTotal, "state", "done")).Value()
	if done != 1 {
		t.Errorf("jobs executed: %d, want 1", done)
	}
}

// TestIdempotentRetrySingleRun: two submissions under one key — the shape
// of a retry whose first attempt actually landed — produce one job and one
// execution, observed end to end through the client.
func TestIdempotentRetrySingleRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, url := startDaemonRaw(t, server.Options{Registry: reg})
	c := client.NewWithOptions(url, client.Options{BaseBackoff: 5 * time.Millisecond})

	key := client.NewIdempotencyKey()
	spec := chaosSpec(t, 32, 4)
	stA, err := c.SubmitWithKey(context.Background(), spec, key)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := c.SubmitWithKey(context.Background(), spec, key)
	if err != nil {
		t.Fatal(err)
	}
	if stA.ID != stB.ID {
		t.Fatalf("idempotent resubmit created a new job: %s vs %s", stA.ID, stB.ID)
	}
	if _, err := c.Stream(context.Background(), stA.ID, nil); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter(server.MetricIdempotentHits).Value(); hits != 1 {
		t.Errorf("idempotent hits: %d, want 1", hits)
	}
	if done := reg.Counter(telemetry.Label(server.MetricJobsTotal, "state", "done")).Value(); done != 1 {
		t.Errorf("jobs executed: %d, want 1", done)
	}
}

// TestStreamResumesAfterDrop: the SSE stream survives its connection being
// severed mid-campaign — the client reconnects with Last-Event-ID and the
// final report matches a direct fetch byte for byte.
func TestStreamResumesAfterDrop(t *testing.T) {
	_, url := startDaemonRaw(t, server.Options{})
	p, err := chaos.NewProxy(strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := client.NewWithOptions(p.URL(), client.Options{
		BaseBackoff: 10 * time.Millisecond,
		MaxAttempts: 8,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, chaosSpec(t, 33, 20000))
	if err != nil {
		t.Fatal(err)
	}

	var dropped atomic.Bool
	rep, err := c.Stream(ctx, st.ID, func(server.JobStatus) {
		if dropped.CompareAndSwap(false, true) {
			p.DropActive() // sever the live stream under the reader
		}
	})
	if err != nil {
		t.Fatalf("stream across drop: %v", err)
	}
	if !dropped.Load() {
		t.Fatal("no progress event arrived to trigger the drop")
	}
	if resumes := c.Registry().Counter(client.MetricSSEResumes).Value(); resumes < 1 {
		t.Errorf("SSE resumes counted: %d, want >= 1", resumes)
	}

	direct, err := client.New(url).Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(direct)
	if !bytes.Equal(a, b) {
		t.Errorf("resumed stream report differs from direct fetch:\n%s\n%s", a, b)
	}
}

// TestStreamStallWatchdog: a stalled connection (bytes stop flowing but
// the socket stays up) trips the idle watchdog, and the stream recovers
// once the path heals.
func TestStreamStallWatchdog(t *testing.T) {
	_, url := startDaemonRaw(t, server.Options{})
	p, err := chaos.NewProxy(strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := client.NewWithOptions(p.URL(), client.Options{
		BaseBackoff:       10 * time.Millisecond,
		MaxAttempts:       8,
		StreamIdleTimeout: 150 * time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.Submit(ctx, chaosSpec(t, 34, 20000))
	if err != nil {
		t.Fatal(err)
	}

	var stalled atomic.Bool
	rep, err := c.Stream(ctx, st.ID, func(server.JobStatus) {
		if stalled.CompareAndSwap(false, true) {
			p.Stall()
			time.AfterFunc(400*time.Millisecond, p.Unstall)
		}
	})
	if err != nil {
		t.Fatalf("stream across stall: %v", err)
	}
	if rep == nil || !stalled.Load() {
		t.Fatalf("stall never injected (rep=%v)", rep)
	}
	if resumes := c.Registry().Counter(client.MetricSSEResumes).Value(); resumes < 1 {
		t.Errorf("SSE resumes counted: %d, want >= 1", resumes)
	}
}

// TestBurstSubmitAllLand: a burst of distinct jobs against a tiny queue —
// the 429s are retried with backoff until every campaign lands and
// completes.
func TestBurstSubmitAllLand(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, url := startDaemonRaw(t, server.Options{
		Registry:   reg,
		QueueSize:  2,
		RetryAfter: 500 * time.Millisecond, // truncates to a 0s header: clients fall back to backoff
	})
	c := client.NewWithOptions(url, client.Options{
		BaseBackoff: 25 * time.Millisecond,
		MaxBackoff:  300 * time.Millisecond,
		MaxAttempts: 30,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// A long campaign holds the daemon's one worker, so the burst finds the
	// queue full however fast its own jobs run; it is cancelled once the
	// daemon has turned a submission away.
	blocker, err := c.Submit(ctx, chaosSpec(t, 99, 2000000))
	if err != nil {
		t.Fatal(err)
	}
	unblocked := make(chan error, 1)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for reg.Counter(server.MetricRejected).Value() == 0 {
			select {
			case <-ctx.Done():
				unblocked <- ctx.Err()
				return
			case <-tick.C:
			}
		}
		unblocked <- c.Cancel(ctx, blocker.ID)
	}()

	const jobs = 6
	var completed atomic.Int64
	errs := chaos.Burst(jobs, func(i int) error {
		rep, err := c.Run(ctx, chaosSpec(t, uint64(100+i), 4), nil)
		if err != nil {
			return err
		}
		if rep.Injections == 4 {
			completed.Add(1)
		}
		return nil
	})
	if len(errs) != 0 {
		t.Fatalf("burst errors: %v", errs)
	}
	if err := <-unblocked; err != nil {
		t.Fatalf("cancel the blocking job: %v", err)
	}
	if completed.Load() != jobs {
		t.Errorf("completed: %d/%d", completed.Load(), jobs)
	}
	if rejected := reg.Counter(server.MetricRejected).Value(); rejected == 0 {
		t.Error("burst never hit the full queue; backpressure untested")
	}
	retries := c.Registry().Counter(telemetry.Label(client.MetricRetries, "op", "submit")).Value()
	if retries == 0 {
		t.Error("no submit retries counted during the burst")
	}
}
