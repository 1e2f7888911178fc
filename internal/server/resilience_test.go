package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldeneye"
	"goldeneye/internal/telemetry"
)

// submitWithKey posts a spec under an Idempotency-Key header.
func submitWithKey(t *testing.T, ts *httptest.Server, spec *JobSpec, key string) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

// TestIdempotentSubmit pins the retry-dedup contract: a second submission
// under the same Idempotency-Key returns the original job (whatever state
// it is in) instead of enqueueing a duplicate.
func TestIdempotentSubmit(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	s, ts := newTestServer(t, Options{QueueSize: 4})
	var once atomic.Bool
	s.beforeRun = func(*job) {
		if once.CompareAndSwap(false, true) {
			close(started)
			<-release
		}
	}
	releaseWorker := sync.OnceFunc(func() { close(release) })
	defer releaseWorker()

	const key = "ge-test-idem-key"
	resp1, st1 := submitWithKey(t, ts, testSpec(t), key)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	<-started // the job is running, not yet terminal

	// Retried submit while the original is in flight: same job, no dup.
	resp2, st2 := submitWithKey(t, ts, testSpec(t), key)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed submit: got %d, want 200", resp2.StatusCode)
	}
	if st2.ID != st1.ID {
		t.Fatalf("replayed submit returned a different job: %s vs %s", st2.ID, st1.ID)
	}
	if resp2.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("replayed submit missing Idempotency-Replayed header")
	}
	if hits := s.reg.Counter(MetricIdempotentHits).Value(); hits != 1 {
		t.Errorf("idempotent hits: got %d, want 1", hits)
	}
	if subs := s.reg.Counter(MetricSubmissions).Value(); subs != 2 {
		t.Errorf("submissions: got %d, want 2", subs)
	}

	// A different key (or none) is a genuinely new submission.
	respNew, stNew := submitWithKey(t, ts, testSpec(t), "ge-another-key")
	if respNew.StatusCode != http.StatusAccepted || stNew.ID == st1.ID {
		t.Fatalf("distinct key: status %d id %s (original %s)", respNew.StatusCode, stNew.ID, st1.ID)
	}

	// After completion the same key still replays the same terminal job.
	releaseWorker()
	if terminal, _, _ := readEvents(t, ts, st1.ID); terminal != "done" {
		t.Fatal("original job did not complete")
	}
	resp3, st3 := submitWithKey(t, ts, testSpec(t), key)
	if resp3.StatusCode != http.StatusOK || st3.ID != st1.ID || st3.State != JobDone {
		t.Errorf("post-completion replay: status %d, %+v", resp3.StatusCode, st3)
	}
}

// TestReadyz: ready while serving, 503 once draining, while /healthz stays
// a 200 liveness signal throughout.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	get := func(path string) (*http.Response, map[string]string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		return resp, body
	}

	resp, body := get("/readyz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz before drain: %d %v", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	resp, body = get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || body["reason"] != "draining" {
		t.Errorf("readyz while draining: %d %v", resp.StatusCode, body)
	}
	// Liveness is not readiness: the draining process is still alive.
	resp, _ = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d", resp.StatusCode)
	}
}

// TestDeadlineDegradesToPartial: a job whose deadline expires mid-campaign
// terminates done with the partial report (Interrupted set) — and the
// partial is never admitted to the result cache.
func TestDeadlineDegradesToPartial(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	// Warm the model/pool resolution path first: the deadline clock starts
	// at worker pickup and also covers job setup, so a cold zoo load on a
	// loaded host could otherwise eat the whole budget before the first
	// injection and fail the job instead of degrading it.
	warm := testSpec(t)
	warm.Campaign.Injections = 50
	_, wst := submit(t, ts, warm)
	if terminal, payload, _ := readEvents(t, ts, wst.ID); terminal != "done" {
		t.Fatalf("warm-up job: got %q (payload %s)", terminal, payload)
	}

	spec := testSpec(t)
	spec.Campaign.Injections = 2000000 // far beyond what the deadline allows
	spec.DeadlineSeconds = 1.0

	_, st := submit(t, ts, spec)
	terminal, payload, _ := readEvents(t, ts, st.ID)
	if terminal != "done" {
		t.Fatalf("terminal: got %q (payload %s)", terminal, payload)
	}
	var rep goldeneye.CampaignReport
	if err := json.Unmarshal(payload, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Error("deadline-expired report not marked Interrupted")
	}
	if rep.Injections <= 0 || rep.Injections >= 2000000 {
		t.Errorf("partial report covers %d injections", rep.Injections)
	}
	if expired := s.reg.Counter(MetricDeadlineExpired).Value(); expired != 1 {
		t.Errorf("deadline expiries: got %d, want 1", expired)
	}

	// The partial must not poison the cache: the cell stays empty.
	s.mu.Lock()
	j := s.jobs[st.ID]
	cached := s.cache.get(j.key, j.hash)
	s.mu.Unlock()
	if cached != nil {
		t.Error("partial report was cached")
	}
}

// TestJournalReplay is the crash-recovery core: a server abandoned with a
// completed, a running, and a queued job is rebuilt from its journal — the
// completed job is restored from cache with an identical report, the
// interrupted ones re-enter the queue under their old IDs and re-execute
// to completion.
func TestJournalReplay(t *testing.T) {
	dir := t.TempDir()
	jdir, cdir := filepath.Join(dir, "journal"), filepath.Join(dir, "cache")

	s1, err := New(Options{JournalDir: jdir, CacheDir: cdir, StreamInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)

	// Job C completes and is cached + journaled done.
	_, stC := submit(t, ts1, testSpec(t))
	terminal, payload, _ := readEvents(t, ts1, stC.ID)
	if terminal != "done" {
		t.Fatalf("job C: %q", terminal)
	}

	// Hold the worker so A sticks in running and B in queued, then abandon
	// the server without draining — the in-process stand-in for SIGKILL.
	release := make(chan struct{})
	started := make(chan struct{})
	var once atomic.Bool
	s1.beforeRun = func(*job) {
		if once.CompareAndSwap(false, true) {
			close(started)
			<-release
		}
	}
	// The abandoned server's held job resumes when the test ends and
	// journals into jdir; let it finish before the temp dir is removed
	// (cleanups run last-in first-out, so this one runs before TempDir's).
	t.Cleanup(func() {
		close(release)
		s1.Shutdown(context.Background())
	})
	specA := testSpec(t)
	specA.Campaign.Seed = 2
	_, stA := submit(t, ts1, specA)
	<-started
	specB := testSpec(t)
	specB.Campaign.Seed = 3
	_, stB := submit(t, ts1, specB)
	ts1.Close()

	// Restart over the same directories.
	s2, ts2 := newTestServer(t, Options{JournalDir: jdir, CacheDir: cdir})

	// C is restored terminal, report byte-identical to the pre-crash one.
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + stC.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var restored goldeneye.CampaignReport
	if err := json.NewDecoder(resp.Body).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	var original goldeneye.CampaignReport
	if err := json.Unmarshal(payload, &original); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(original)
	b, _ := json.Marshal(restored)
	if !bytes.Equal(a, b) {
		t.Errorf("restored report differs:\n%s\n%s", a, b)
	}

	// A and B were interrupted: the replayed server re-queues them under
	// their old IDs and runs them to completion.
	for _, id := range []string{stA.ID, stB.ID} {
		if terminal, payload, _ := readEvents(t, ts2, id); terminal != "done" {
			t.Errorf("replayed job %s: %q (%s)", id, terminal, payload)
		}
	}

	restoredN := s2.reg.Counter(telemetry.Label(MetricJournalReplayed, "outcome", "restored")).Value()
	requeuedN := s2.reg.Counter(telemetry.Label(MetricJournalReplayed, "outcome", "requeued")).Value()
	if restoredN != 1 || requeuedN != 2 {
		t.Errorf("replay outcomes: restored=%d requeued=%d, want 1/2", restoredN, requeuedN)
	}

	// New submissions on the replayed server continue the ID sequence.
	specD := testSpec(t)
	specD.Campaign.Seed = 4
	_, stD := submit(t, ts2, specD)
	for _, old := range []string{stA.ID, stB.ID, stC.ID} {
		if stD.ID == old {
			t.Errorf("replayed server reissued ID %s", old)
		}
	}
}

// TestCancelRaces: cancellation is an idempotent no-op against completed
// jobs, duplicate cancels collapse to one terminal transition, and cancels
// racing a journal replay's re-queue leave the job in exactly one terminal
// state. Run under -race via make stress-chaos.
func TestCancelRaces(t *testing.T) {
	t.Run("after completion", func(t *testing.T) {
		s, ts := newTestServer(t, Options{})
		_, st := submit(t, ts, testSpec(t))
		if terminal, _, _ := readEvents(t, ts, st.ID); terminal != "done" {
			t.Fatal("job did not complete")
		}
		for i := 0; i < 2; i++ {
			resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			var got JobStatus
			json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || got.State != JobDone {
				t.Fatalf("cancel %d after done: %d %+v", i, resp.StatusCode, got)
			}
		}
		if n := s.reg.Counter(telemetry.Label(MetricJobsTotal, "state", string(JobCancelled))).Value(); n != 0 {
			t.Errorf("cancelled counter after no-op cancels: %d", n)
		}
	})

	t.Run("duplicate cancels", func(t *testing.T) {
		release := make(chan struct{})
		started := make(chan struct{})
		s, ts := newTestServer(t, Options{})
		var once atomic.Bool
		s.beforeRun = func(*job) {
			if once.CompareAndSwap(false, true) {
				close(started)
				<-release
			}
		}
		_, st := submit(t, ts, testSpec(t))
		<-started

		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "", nil)
				if err == nil {
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		close(release)
		if terminal, _, _ := readEvents(t, ts, st.ID); terminal != "cancelled" {
			t.Errorf("terminal: %q", terminal)
		}
		if n := s.reg.Counter(telemetry.Label(MetricJobsTotal, "state", string(JobCancelled))).Value(); n != 1 {
			t.Errorf("cancelled counter after 8 racing cancels: %d, want 1", n)
		}
	})

	t.Run("cancel racing replay", func(t *testing.T) {
		dir := t.TempDir()
		jdir := filepath.Join(dir, "journal")
		s1, err := New(Options{JournalDir: jdir, StreamInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ts1 := httptest.NewServer(s1)
		release := make(chan struct{})
		started := make(chan struct{})
		var once atomic.Bool
		s1.beforeRun = func(*job) {
			if once.CompareAndSwap(false, true) {
				close(started)
				<-release
			}
		}
		// As in TestJournalReplay: the abandoned server's held job must
		// finish journaling before the temp dir is removed.
		t.Cleanup(func() {
			close(release)
			s1.Shutdown(context.Background())
		})
		_, st := submit(t, ts1, testSpec(t))
		<-started
		ts1.Close()

		// The replayed server re-queues the job; cancel it immediately,
		// racing the worker picking it up. Whichever side wins, the job
		// lands in exactly one terminal state.
		s2, ts2 := newTestServer(t, Options{JournalDir: jdir})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts2.URL+"/v1/jobs/"+st.ID+"/cancel", "", nil)
				if err == nil {
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		terminal, _, _ := readEvents(t, ts2, st.ID)
		if terminal != "cancelled" && terminal != "done" {
			t.Errorf("terminal after cancel-vs-replay race: %q", terminal)
		}
		total := s2.reg.Counter(telemetry.Label(MetricJobsTotal, "state", string(JobCancelled))).Value() +
			s2.reg.Counter(telemetry.Label(MetricJobsTotal, "state", string(JobDone))).Value()
		if total != 1 {
			t.Errorf("terminal transitions: %d, want exactly 1", total)
		}
	})
}

// TestSSEResume pins the server half of Last-Event-ID resume: replayed
// sequence numbers suppress already-seen progress frames, the terminal
// event is always delivered, and resumed connections are counted.
func TestSSEResume(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	_, st := submit(t, ts, testSpec(t))
	if terminal, _, _ := readEvents(t, ts, st.ID); terminal != "done" {
		t.Fatal("job did not complete")
	}

	// Resume claiming everything was seen: progress is suppressed, the
	// terminal frame still arrives.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "1099511627776") // far beyond any real seq
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, terminal := collectSSE(t, resp)
	if terminal != "done" {
		t.Errorf("resumed stream terminal: %q", terminal)
	}
	if bytes.Contains(body, []byte("event: progress")) {
		t.Error("resume with max Last-Event-ID still delivered progress frames")
	}
	if n := s.reg.Counter(MetricSSEResumes).Value(); n != 1 {
		t.Errorf("SSE resumes: got %d, want 1", n)
	}

	// A malformed Last-Event-ID falls back to a fresh stream.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req2.Header.Set("Last-Event-ID", "not-a-number")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, terminal2 := collectSSE(t, resp2)
	if terminal2 != "done" || !bytes.Contains(body2, []byte("event: progress")) {
		t.Errorf("fresh-fallback stream: terminal %q, body %s", terminal2, body2)
	}
}

// collectSSE reads a stream to its terminal event, returning the raw bytes
// seen and the terminal event name.
func collectSSE(t *testing.T, resp *http.Response) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended without terminal event: %v", err)
		}
		buf.WriteString(line)
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			switch event {
			case "done", "failed", "cancelled":
				return buf.Bytes(), event
			}
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		}
	}
}
