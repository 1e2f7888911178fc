package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goldeneye"
	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/sampling"
	"goldeneye/internal/telemetry"
)

// testSpec is a tiny mlp campaign that runs in well under a second.
func testSpec(t *testing.T) *JobSpec {
	t.Helper()
	f, err := goldeneye.ParseFormat("fp16")
	if err != nil {
		t.Fatal(err)
	}
	return &JobSpec{
		Model:     "mlp",
		Samples:   16,
		EvalBatch: 8,
		Campaign: goldeneye.CampaignConfig{
			Format:     f,
			Injections: 4,
			Seed:       9,
			Layer:      1,
		},
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.StreamInterval == 0 {
		opts.StreamInterval = 10 * time.Millisecond
	}
	s, err := New(opts)
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
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec *JobSpec) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
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

// readEvents consumes a job's SSE stream until the terminal event,
// returning the terminal event name, its payload, and every progress
// snapshot seen on the way.
func readEvents(t *testing.T, ts *httptest.Server, id string) (terminal string, payload []byte, progress []JobStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type: got %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var event string
	var data bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			switch event {
			case "progress":
				var st JobStatus
				if err := json.Unmarshal(data.Bytes(), &st); err != nil {
					t.Fatalf("bad progress payload %q: %v", data.String(), err)
				}
				progress = append(progress, st)
			case "done", "failed", "cancelled":
				return event, append([]byte(nil), data.Bytes()...), progress
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data.WriteString(strings.TrimPrefix(line, "data: "))
		}
	}
	t.Fatalf("stream ended without terminal event (scan err: %v)", sc.Err())
	return "", nil, nil
}

// TestSubmitStreamReport is the end-to-end happy path: submit, follow SSE
// to the done event, and check the carried report matches the report
// endpoint.
func TestSubmitStreamReport(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, st := submit(t, ts, testSpec(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	if st.State != JobQueued || st.Total != 4 {
		t.Fatalf("accepted status: %+v", st)
	}

	terminal, payload, _ := readEvents(t, ts, st.ID)
	if terminal != "done" {
		t.Fatalf("terminal event: got %q (payload %s)", terminal, payload)
	}
	var streamed goldeneye.CampaignReport
	if err := json.Unmarshal(payload, &streamed); err != nil {
		t.Fatalf("decode streamed report: %v", err)
	}
	if streamed.Injections != 4 {
		t.Errorf("streamed report injections: got %d, want 4", streamed.Injections)
	}

	// The report endpoint serves the same bytes the stream carried.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var fetched goldeneye.CampaignReport
	if err := json.NewDecoder(rresp.Body).Decode(&fetched); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(streamed)
	b, _ := json.Marshal(fetched)
	if !bytes.Equal(a, b) {
		t.Errorf("stream and report endpoint disagree:\n%s\n%s", a, b)
	}

	// Terminal status reflects completion.
	jresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var final JobStatus
	if err := json.NewDecoder(jresp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || final.Done != 4 {
		t.Errorf("final status: %+v", final)
	}

	// A finished job keeps neither its evaluation pool nor its registry
	// and progress hook, in its config or its report's.
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	rep, _ := j.result()
	if rep == nil {
		t.Fatal("finished job has no report")
	}
	for _, cfg := range []goldeneye.CampaignConfig{j.snapshotCfg(), rep.Config} {
		if cfg.Pool != nil || cfg.Metrics != nil || cfg.Progress != nil {
			t.Error("finished job still holds its pool, registry or progress hook")
		}
	}
	j.mu.Lock()
	reg := j.reg
	j.mu.Unlock()
	if reg != nil {
		t.Error("finished job still holds its registry")
	}
}

// TestResultCacheHit pins the content-addressed cache contract:
// resubmitting an identical job answers immediately from cache (counted,
// not re-executed), while any parameter change misses.
func TestResultCacheHit(t *testing.T) {
	var executions atomic.Int64
	s, ts := newTestServer(t, Options{})
	s.beforeRun = func(*job) { executions.Add(1) }

	_, st := submit(t, ts, testSpec(t))
	if terminal, payload, _ := readEvents(t, ts, st.ID); terminal != "done" {
		t.Fatalf("first run: %q (%s)", terminal, payload)
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("executions after first run: %d", got)
	}

	resp, st2 := submit(t, ts, testSpec(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit must answer 200, got %d", resp.StatusCode)
	}
	if st2.State != JobDone || !st2.Cached {
		t.Fatalf("cache hit status: %+v", st2)
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("cache hit re-executed the campaign (executions=%d)", got)
	}
	if hits := s.reg.Counter(MetricCacheHits).Value(); hits != 1 {
		t.Errorf("cache hits counter: got %d, want 1", hits)
	}
	if ratio := s.reg.Gauge(MetricCacheHitRatio).Value(); ratio <= 0 || ratio > 1 {
		t.Errorf("hit ratio gauge: %v", ratio)
	}

	// The cached job's SSE stream still terminates with the report.
	if terminal, _, _ := readEvents(t, ts, st2.ID); terminal != "done" {
		t.Errorf("cached job stream terminal: %q", terminal)
	}

	// A different seed is a different cell: miss, new execution.
	spec := testSpec(t)
	spec.Campaign.Seed = 10
	_, st3 := submit(t, ts, spec)
	if terminal, _, _ := readEvents(t, ts, st3.ID); terminal != "done" {
		t.Fatalf("third run did not complete")
	}
	if got := executions.Load(); got != 2 {
		t.Errorf("changed seed must re-execute: executions=%d", got)
	}
}

// TestCacheDirRangerJobsShareCalibration: ranger jobs on a daemon with a
// cache directory share their calibration through the process's
// calibration cache. Of two jobs that differ only in seed, the second
// reads a hit, and its report equals a memory-only daemon's.
func TestCacheDirRangerJobsShareCalibration(t *testing.T) {
	rangerSpec := func(seed uint64) *JobSpec {
		spec := testSpec(t)
		spec.Campaign.Seed = seed
		spec.Campaign.Detectors = []detect.Spec{{Kind: "ranger"}}
		spec.Campaign.Recovery = goldeneye.RecoverClamp
		return spec
	}
	run := func(s *Server, ts *httptest.Server, spec *JobSpec) (*job, []byte) {
		t.Helper()
		_, st := submit(t, ts, spec)
		if terminal, payload, _ := readEvents(t, ts, st.ID); terminal != "done" {
			t.Fatalf("job %s: %q (%s)", st.ID, terminal, payload)
		}
		s.mu.Lock()
		j := s.jobs[st.ID]
		s.mu.Unlock()
		rep, err := j.result()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return j, b
	}

	s, ts := newTestServer(t, Options{CacheDir: t.TempDir()})
	run(s, ts, rangerSpec(21))
	j, got := run(s, ts, rangerSpec(22))
	if st := j.snapshot(); st.Calibration != "hit" {
		t.Errorf("second ranger job: calibration cache outcome %q, want hit", st.Calibration)
	}

	mem, memTS := newTestServer(t, Options{})
	if _, want := run(mem, memTS, rangerSpec(22)); !bytes.Equal(got, want) {
		t.Errorf("cache-dir daemon's report differs from a memory-only daemon's:\n got %s\nwant %s", got, want)
	}
}

// TestQueueBackpressure fills the queue behind a deliberately held worker
// and checks the overflow submission bounces with 429 + Retry-After.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	s, ts := newTestServer(t, Options{QueueSize: 1, RetryAfter: 7 * time.Second})
	var once atomic.Bool
	s.beforeRun = func(*job) {
		if once.CompareAndSwap(false, true) {
			close(started)
			<-release
		}
	}
	defer close(release)

	specA := testSpec(t)
	if resp, _ := submit(t, ts, specA); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: %d", resp.StatusCode)
	}
	<-started // worker holds A; the queue is empty again

	specB := testSpec(t)
	specB.Campaign.Seed = 2
	if resp, _ := submit(t, ts, specB); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: %d", resp.StatusCode)
	}

	specC := testSpec(t)
	specC.Campaign.Seed = 3
	resp, _ := submit(t, ts, specC)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C: got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After: got %q, want \"7\"", ra)
	}
	if rejected := s.reg.Counter(MetricRejected).Value(); rejected != 1 {
		t.Errorf("rejected counter: got %d, want 1", rejected)
	}
	if depth := s.reg.Gauge(MetricQueueDepth).Value(); depth != 1 {
		t.Errorf("queue depth gauge: got %v, want 1", depth)
	}
}

// TestCancel covers both cancellation paths: a queued job terminates
// immediately; a running one unwinds through the campaign context.
func TestCancel(t *testing.T) {
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

	_, stA := submit(t, ts, testSpec(t))
	<-started
	specB := testSpec(t)
	specB.Campaign.Seed = 2
	_, stB := submit(t, ts, specB)

	// Cancel the queued job: terminal state must land without a worker.
	resp, err := http.Post(ts.URL+"/v1/jobs/"+stB.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if terminal, _, _ := readEvents(t, ts, stB.ID); terminal != "cancelled" {
		t.Errorf("queued cancel terminal: %q", terminal)
	}

	// Cancel the running job, then release the worker: the campaign's
	// context cancellation turns it into a cancelled terminal state.
	resp, err = http.Post(ts.URL+"/v1/jobs/"+stA.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	if terminal, _, _ := readEvents(t, ts, stA.ID); terminal != "cancelled" {
		t.Errorf("running cancel terminal: %q", terminal)
	}
	cancelled := s.reg.Counter(telemetry.Label(MetricJobsTotal, "state", string(JobCancelled))).Value()
	if cancelled != 2 {
		t.Errorf("cancelled jobs counter: got %d, want 2", cancelled)
	}
}

// TestDrainPersistsCache runs a job, drains the server, then brings up a
// fresh server over the same cache directory: the resubmission must be a
// cache hit served without re-execution, with byte-identical report — for
// an exhaustive job and for a sampled one, whose report carries the
// stratified estimator the disk entry must keep.
func TestDrainPersistsCache(t *testing.T) {
	cases := []struct {
		name string
		spec func(*testing.T) *JobSpec
	}{
		{"exhaustive", testSpec},
		{"sampled", func(t *testing.T) *JobSpec {
			spec := testSpec(t)
			spec.Campaign.Injections = 32
			spec.Campaign.Sampling = &sampling.Plan{Fraction: 0.5}
			return spec
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()

			s1, err := New(Options{CacheDir: dir, StreamInterval: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(s1)
			_, st := submit(t, ts1, tc.spec(t))
			terminal, payload, _ := readEvents(t, ts1, st.ID)
			if terminal != "done" {
				t.Fatalf("first run: %q", terminal)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s1.Shutdown(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			ts1.Close()

			// Draining servers refuse new work.
			var executions atomic.Int64
			s2, ts2 := newTestServer(t, Options{CacheDir: dir})
			s2.beforeRun = func(*job) { executions.Add(1) }
			resp, st2 := submit(t, ts2, tc.spec(t))
			if resp.StatusCode != http.StatusOK || !st2.Cached {
				t.Fatalf("restart resubmit: status %d, %+v", resp.StatusCode, st2)
			}
			if executions.Load() != 0 {
				t.Errorf("restart cache hit re-executed the campaign")
			}
			rresp, err := http.Get(ts2.URL + "/v1/jobs/" + st2.ID + "/report")
			if err != nil {
				t.Fatal(err)
			}
			defer rresp.Body.Close()
			var restored goldeneye.CampaignReport
			if err := json.NewDecoder(rresp.Body).Decode(&restored); err != nil {
				t.Fatal(err)
			}
			var original goldeneye.CampaignReport
			if err := json.Unmarshal(payload, &original); err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(original)
			b, _ := json.Marshal(restored)
			if !bytes.Equal(a, b) {
				t.Errorf("restored report differs from original:\n%s\n%s", a, b)
			}
		})
	}
}

// TestSubmitRejectsDraining: a draining server answers 503.
func TestSubmitRejectsDraining(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := submit(t, ts, testSpec(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: got %d, want 503", resp.StatusCode)
	}
}

// TestDecodeJobSpecCampaignFields: the campaign's own rules come from
// goldeneye.CampaignConfig.Validate, reported under a "Campaign." field,
// after the decoder defaults an unset site and target.
func TestDecodeJobSpecCampaignFields(t *testing.T) {
	cases := map[string]struct{ campaign, field string }{
		"no format":        {`{"injections":1,"seed":1,"layer":0}`, "Campaign.Format"},
		"no injections":    {`{"format":"fp16","seed":1,"layer":0}`, "Campaign.Injections"},
		"accum weight":     {`{"version":2,"format":"fp16","site":"accum","target":"weight","injections":1,"seed":1,"layer":0}`, "Campaign.Target"},
		"shard index":      {`{"version":3,"format":"fp16","shard_index":2,"shard_count":2,"injections":4,"seed":1,"layer":0}`, "Campaign.ShardIndex"},
		"recovery alone":   {`{"format":"fp16","recovery":"clamp","injections":1,"seed":1,"layer":0}`, "Campaign.Recovery"},
		"bad fraction":     {`{"version":4,"format":"fp16","sampling":{"fraction":2},"injections":1,"seed":1,"layer":0}`, "Campaign.Sampling"},
		"empty assignment": {`{"version":2,"assignment":{"default":{}},"injections":1,"seed":1,"layer":0}`, "Campaign.Assignment"},
	}
	for name, tc := range cases {
		_, err := DecodeJobSpec(strings.NewReader(`{"model":"mlp","campaign":` + tc.campaign + `}`))
		var ce *goldeneye.ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: got %v, want a *ConfigError on %s", name, err, tc.field)
		}
	}
	spec, err := DecodeJobSpec(strings.NewReader(`{"model":"mlp","campaign":{"format":"fp16","injections":1,"seed":1,"layer":0}}`))
	if err != nil {
		t.Fatalf("minimal spec without site or target rejected: %v", err)
	}
	if spec.Campaign.Site != inject.SiteValue || spec.Campaign.Target != inject.TargetNeuron {
		t.Errorf("unset site/target defaulted to %s/%s, want value/neuron", spec.Campaign.Site, spec.Campaign.Target)
	}
}

// TestBadSubmissions: malformed and invalid specs answer 400 with a JSON
// error, and unknown jobs 404.
func TestBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	cases := map[string]string{
		"garbage":        `{]`,
		"unknown model":  `{"model":"nope","campaign":{"format":"fp16","injections":1,"seed":1,"layer":0}}`,
		"no format":      `{"model":"mlp","campaign":{"injections":1,"seed":1,"layer":0}}`,
		"no injections":  `{"model":"mlp","campaign":{"format":"fp16","seed":1,"layer":0}}`,
		"unknown field":  `{"model":"mlp","bogus":1,"campaign":{"format":"fp16","injections":1,"seed":1,"layer":0}}`,
		"trailing data":  `{"model":"mlp","campaign":{"format":"fp16","injections":1,"seed":1,"layer":0}}{"x":1}`,
		"newer version":  `{"version":99,"model":"mlp","campaign":{"format":"fp16","injections":1,"seed":1,"layer":0}}`,
		"keep trace":     `{"model":"mlp","campaign":{"format":"fp16","injections":1,"seed":1,"layer":0,"keep_trace":true}}`,
		"oversize batch": `{"model":"mlp","samples":8,"campaign":{"format":"fp16","injections":1,"seed":1,"layer":0,"batch_size":99}}`,
	}
	for name, body := range cases {
		if resp := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: got %d, want 404", resp.StatusCode)
	}
}

// TestObservabilityEndpoints: the telemetry mux is mounted next to the job
// API and exposes the server metrics.
func TestObservabilityEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, st := submit(t, ts, testSpec(t))
	if terminal, _, _ := readEvents(t, ts, st.ID); terminal != "done" {
		t.Fatal("job did not complete")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{MetricSubmissions, MetricCacheMisses, MetricJobsTotal} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health map[string]interface{}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz: %+v", health)
	}
}

// TestDecodeCompatAcrossSchemaVersions pins the older-job-on-newer-server
// contract: specs written by v1–v3 clients predate the sampling plan and
// must keep decoding on the v4 server with strict decoding (unknown-field
// rejection) still on, while a v4 spec's plan survives a decode→re-encode
// round trip.
func TestDecodeCompatAcrossSchemaVersions(t *testing.T) {
	older := map[string]string{
		"v1 uniform":    `{"model":"mlp","campaign":{"format":"fp16","injections":4,"seed":9,"layer":1}}`,
		"v2 assignment": `{"model":"mlp","campaign":{"version":2,"assignment":{"default":{"weights":"bf16","activations":"fp8_e4m3","accumulator":"fp32"}},"site":"accum","injections":4,"seed":9,"layer":1}}`,
		"v3 sharded":    `{"model":"mlp","campaign":{"version":3,"format":"fp16","shard_index":0,"shard_count":2,"injections":4,"seed":9,"layer":1}}`,
	}
	for name, doc := range older {
		spec, err := DecodeJobSpec(strings.NewReader(doc))
		if err != nil {
			t.Errorf("%s job rejected by the v4 server: %v", name, err)
			continue
		}
		if spec.Campaign.Sampling != nil {
			t.Errorf("%s job decoded with a sampling plan it never carried", name)
		}
	}

	v4 := `{"model":"mlp","campaign":{"version":4,"format":"fp16","sampling":{"fraction":0.25,"strata":{"exponent":1},"target_ci":0.05,"check_every":32},"injections":8,"seed":9,"layer":1}}`
	spec, err := DecodeJobSpec(strings.NewReader(v4))
	if err != nil {
		t.Fatalf("v4 sampled job rejected: %v", err)
	}
	plan := spec.Campaign.Sampling
	if plan == nil {
		t.Fatal("v4 sampled job decoded without its sampling plan")
	}
	if plan.Fraction != 0.25 || plan.TargetCI != 0.05 || plan.CheckEvery != 32 || plan.Strata["exponent"] != 1 {
		t.Fatalf("sampling plan mangled in decode: %+v", plan)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"version":4`, `"sampling"`, `"target_ci":0.05`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("re-encoded v4 spec missing %s: %s", want, data)
		}
	}
}

// FuzzJobConfigDecode pins the submission decoder's no-panic guarantee:
// whatever bytes arrive, DecodeJobSpec returns a value or an error, never
// a panic that could take down the daemon.
func FuzzJobConfigDecode(f *testing.F) {
	f.Add([]byte(`{"model":"mlp","campaign":{"format":"fp16","injections":4,"seed":9,"layer":1}}`))
	f.Add([]byte(`{"model":"mlp","samples":-1}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"model":"mlp","campaign":{"format":"bfp_e5m5_b0","fault_kind":"burst","detectors":[{"kind":"ranger"}],"recovery":"clamp","injections":1,"seed":1,"layer":-1}}`))
	f.Add([]byte(`{"model":"mlp","campaign":{"format":"fp_e0m0","injections":1,"seed":1,"layer":0}}`))
	f.Add([]byte(fmt.Sprintf(`{"model":"mlp","campaign":{"format":%q,"injections":1,"seed":1,"layer":0}}`, strings.Repeat("f", 1000))))
	// Schema v2 documents: per-layer assignments and the accum site, plus
	// strict-decoding and validation edge cases (unknown v2 field, metadata-
	// carrying accumulator format, malformed per-layer key).
	f.Add([]byte(`{"model":"mlp","campaign":{"version":2,"assignment":{"default":{"weights":"bf16","activations":"fp8_e4m3","accumulator":"fp32"}},"site":"accum","injections":4,"seed":9,"layer":1}}`))
	f.Add([]byte(`{"model":"mlp","campaign":{"version":2,"assignment":{"default":{"activations":"fp16"},"per_layer":{"1":{"accumulator":"fp16"}}},"injections":4,"seed":9,"layer":1}}`))
	f.Add([]byte(`{"model":"mlp","campaign":{"version":2,"assignment":{"default":{"accumulator":"bfp_e5m5_b0"}},"injections":1,"seed":1,"layer":0}}`))
	f.Add([]byte(`{"model":"mlp","campaign":{"version":2,"assignment":{"default":{"activations":"fp16"}},"bogus_field":1,"injections":1,"seed":1,"layer":0}}`))
	f.Add([]byte(`{"model":"mlp","campaign":{"version":2,"assignment":{"per_layer":{"x":{"weights":"fp16"}}},"injections":1,"seed":1,"layer":0}}`))
	// Schema v4 documents: sampling plans — plain fraction, per-stratum
	// overrides with pruning and sequential stopping, and validation edge
	// cases (fraction out of range, negative CI target, unknown field).
	f.Add([]byte(`{"model":"mlp","campaign":{"version":4,"format":"fp16","sampling":{"fraction":0.25},"injections":8,"seed":9,"layer":1}}`))
	f.Add([]byte(`{"model":"mlp","campaign":{"version":4,"format":"fp8_e4m3","use_ranger":true,"sampling":{"fraction":1,"strata":{"exponent":1,"mantissa":0.05},"prune":true,"target_ci":0.02,"check_every":128},"injections":8,"seed":9,"layer":1}}`))
	f.Add([]byte(`{"model":"mlp","campaign":{"version":4,"format":"fp16","sampling":{"fraction":0},"injections":1,"seed":1,"layer":0}}`))
	f.Add([]byte(`{"model":"mlp","campaign":{"version":4,"format":"fp16","sampling":{"fraction":0.5,"target_ci":-1},"injections":1,"seed":1,"layer":0}}`))
	f.Add([]byte(`{"model":"mlp","campaign":{"version":4,"format":"fp16","sampling":{"fraction":0.5,"bogus":1},"injections":1,"seed":1,"layer":0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(bytes.NewReader(data))
		if err == nil && spec == nil {
			t.Fatal("nil spec without error")
		}
		if err == nil {
			// Whatever decoded must re-validate and re-encode cleanly: the
			// server marshals accepted specs back out (status, cache cells).
			if verr := spec.Validate(); verr != nil {
				t.Fatalf("decoded spec fails re-validation: %v", verr)
			}
			if _, merr := json.Marshal(spec); merr != nil {
				t.Fatalf("decoded spec fails re-encoding: %v", merr)
			}
		}
	})
}
