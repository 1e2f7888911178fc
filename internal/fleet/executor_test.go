package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
	"goldeneye/internal/server/journal"
)

// TestServeFrontEnd drives the coordinator's HTTP mode with the ordinary
// job client, end to end: submit, SSE progress, report — and the report
// bytes must match a single daemon at the equal effective worker count,
// so existing tooling cannot tell a fleet from one node.
func TestServeFrontEnd(t *testing.T) {
	spec := testSpec(t)
	want := reportJSON(t, singleNodeReference(t, spec, 2))

	c, err := New([]string{startDaemon(t), startDaemon(t)}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	fs := Serve(c, ServerOptions{StreamInterval: 10 * 1e6}) // 10ms
	ts := httptest.NewServer(fs)
	defer ts.Close()
	t.Cleanup(func() { fs.Shutdown(context.Background()) })

	cli := client.New(ts.URL)
	if err := cli.Ready(context.Background()); err != nil {
		t.Fatalf("coordinator not ready: %v", err)
	}
	rep, err := cli.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("run via coordinator: %v", err)
	}
	if got := reportJSON(t, rep); got != want {
		t.Fatalf("coordinator report diverges from single-node run\nfleet:  %s\nsingle: %s", got, want)
	}

	// The /report body must be the merged CampaignReport alone, identical
	// to what a single daemon serves for the same campaign.
	st, err := cli.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stream(context.Background(), st.ID, nil); err != nil {
		t.Fatal(err)
	}
	rep2, err := cli.Report(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, rep2); got != want {
		t.Fatalf("/report bytes diverge from single-node run: %s", got)
	}
}

// TestServeMetricsRollup pins the fleet-wide /metrics exposition: the
// coordinator's own goldeneye_fleet_* family plus each node's metrics
// re-labeled with node="addr".
func TestServeMetricsRollup(t *testing.T) {
	spec := testSpec(t)
	n1, n2 := startDaemon(t), startDaemon(t)
	c, err := New([]string{n1, n2}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	fs := Serve(c, ServerOptions{})
	ts := httptest.NewServer(fs)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		MetricShardsDone + " 2",
		`goldeneye_server_jobs_total{node="` + n1 + `",state="done"}`,
		`goldeneye_server_jobs_total{node="` + n2 + `",state="done"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rollup missing %q\n%s", want, text)
		}
	}
}

// TestServeMetricsFamiliesContiguous checks the rollup against the text
// format's grouping rule: the front end's goldeneye_server_* families and
// every node's copy of them must form one group per family, each with at
// most one TYPE line.
func TestServeMetricsFamiliesContiguous(t *testing.T) {
	c, err := New([]string{startDaemon(t), startDaemon(t)}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	fs := Serve(c, ServerOptions{StreamInterval: 10 * time.Millisecond})
	ts := httptest.NewServer(fs)
	defer ts.Close()
	t.Cleanup(func() { fs.Shutdown(context.Background()) })
	if _, err := client.New(ts.URL).Run(context.Background(), testSpec(t), nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	kinds := map[string]string{}
	closed := map[string]bool{}
	current := ""
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		fields := strings.Fields(line)
		name := ""
		switch {
		case fields[0] == "#" && len(fields) > 3 && fields[1] == "TYPE":
			name = fields[2]
			if kinds[name] != "" {
				t.Errorf("second TYPE line for %s", name)
			}
			kinds[name] = fields[3]
		case fields[0] == "#":
			continue
		default:
			name = line[:strings.IndexAny(line, "{ ")]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && kinds[base] == "histogram" {
					name = base
				}
			}
		}
		if name != current {
			if closed[name] {
				t.Errorf("family %s is split into non-contiguous groups\n%s", name, body)
				return
			}
			closed[current] = true
			current = name
		}
	}
	if kinds[server.MetricJobsTotal] == "" {
		t.Fatalf("no %s family in the rollup\n%s", server.MetricJobsTotal, body)
	}
}

// TestServeReadyzTracksFleet pins readiness semantics: a coordinator over
// a fleet with fewer than MinNodes healthy nodes answers 503.
func TestServeReadyzTracksFleet(t *testing.T) {
	opts := fastOpts()
	opts.MinNodes = 2
	c, err := New([]string{"http://127.0.0.1:1", startDaemon(t)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Mark the dead node lost by hand — readiness reflects coordinator
	// state, not live probes.
	c.nodes[0].lost = true
	ts := httptest.NewServer(Serve(c, ServerOptions{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with 1/2 healthy nodes, want 503", resp.StatusCode)
	}
}

// TestServeCacheKeysOnShardCount pins the front end's result cache to the
// shard geometry: the merged report is the bytes of a single node at
// workers = shard count, so front ends with different Shards over one
// CacheDir must never serve each other's reports.
func TestServeCacheKeysOnShardCount(t *testing.T) {
	spec := testSpec(t)
	nodes := []string{startDaemon(t), startDaemon(t)}
	dir := t.TempDir()
	ctx := context.Background()
	for _, shards := range []int{2, 3} {
		opts := fastOpts()
		opts.Shards = shards
		c, err := New(nodes, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(server.Options{Executor: c, CacheDir: dir, StreamInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(ctx)
		})
		cli := client.New(ts.URL)

		st, err := cli.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cached {
			t.Fatalf("front end with %d shards served a report cached under another shard count", shards)
		}
		rep, err := cli.Stream(ctx, st.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reportJSON(t, rep), reportJSON(t, singleNodeReference(t, spec, shards)); got != want {
			t.Fatalf("%d shards: report diverges from single-node run\nfleet:  %s\nsingle: %s", shards, got, want)
		}
		if again, err := cli.Submit(ctx, spec); err != nil || !again.Cached {
			t.Fatalf("%d shards: identical resubmission missed the cache: %+v, %v", shards, again, err)
		}
	}
}

// TestServeReplayKeepsJournaledShards restarts a journaling front end
// with another shard count while a job is in flight: the replayed job
// must run at the shard count journaled with it, so the report it caches
// under that geometry's hash holds that geometry's bytes.
func TestServeReplayKeepsJournaledShards(t *testing.T) {
	spec := testSpec(t)
	nodes := []string{startDaemon(t), startDaemon(t)}
	jdir, cdir := t.TempDir(), t.TempDir()
	ctx := context.Background()
	front := func(shards int, jdir, cdir string) (*client.Client, *server.Server) {
		opts := fastOpts()
		opts.Shards = shards
		c, err := New(nodes, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(server.Options{Executor: c, JournalDir: jdir, CacheDir: cdir, StreamInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(ctx)
		})
		return client.New(ts.URL), s
	}

	// Journal a job at Shards=2 (caching nowhere), stop that front end,
	// and mark the job running: what a coordinator killed mid-campaign
	// leaves behind.
	first, firstSrv := front(2, jdir, "")
	st, err := first.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	stopped, stop := context.WithCancel(ctx)
	stop()
	firstSrv.Shutdown(stopped)
	j, err := journal.Open(jdir)
	if err != nil {
		t.Fatal(err)
	}
	entries, _, err := j.Replay()
	if err != nil || len(entries) != 1 {
		t.Fatalf("journal replay: %d entries, %v", len(entries), err)
	}
	entries[0].State = journal.StateRunning
	if err := j.Record(entries[0]); err != nil {
		t.Fatal(err)
	}

	want := reportJSON(t, singleNodeReference(t, spec, 2))
	restarted, restartedSrv := front(3, jdir, cdir)
	rep, err := restarted.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("replayed job: %v", err)
	}
	restartedSrv.Shutdown(ctx) // the worker caches the report after publishing it
	if got := reportJSON(t, rep); got != want {
		t.Fatalf("replayed job ran at the restarted shard count\nfleet:    %s\nshards=2: %s", got, want)
	}
	later, _ := front(2, "", cdir)
	again, err := later.Submit(ctx, spec)
	if err != nil || !again.Cached {
		t.Fatalf("resubmission at Shards=2 missed the cache: %+v, %v", again, err)
	}
	if rep, err = later.Report(ctx, again.ID); err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, rep); got != want {
		t.Fatalf("cache entry for Shards=2 holds other bytes\ncached:   %s\nshards=2: %s", got, want)
	}
}
