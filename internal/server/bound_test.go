package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"goldeneye"
	"goldeneye/internal/dataset"
	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/sampling"
	"goldeneye/internal/server/journal"
	"goldeneye/internal/zoo"
)

// runSeeds runs one tiny job per seed in [from, from+n), each to its
// terminal event, and returns their IDs in submission order.
func runSeeds(t *testing.T, ts *httptest.Server, from, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for seed := from; seed < from+n; seed++ {
		spec := testSpec(t)
		spec.Campaign.Seed = uint64(seed)
		_, st := submit(t, ts, spec)
		if terminal, payload, _ := readEvents(t, ts, st.ID); terminal != "done" {
			t.Fatalf("job %s (seed %d): %q (%s)", st.ID, seed, terminal, payload)
		}
		ids = append(ids, st.ID)
	}
	return ids
}

// get returns the status code and body of a GET on path.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// listIDs returns the IDs GET /v1/jobs lists, in order.
func listIDs(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	code, body := get(t, ts, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct{ Jobs []JobStatus }
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(list.Jobs))
	for i, st := range list.Jobs {
		ids[i] = st.ID
	}
	return ids
}

// TestFinishedJobsBounded: past maxFinishedJobs the oldest finished job
// leaves the table (its status and report answer 404, the list stays at
// the bound), and a retry under its Idempotency-Key, after its report also
// left the memory cache, is a new job whose report has the same bytes, on
// a memory-only daemon (recomputed) and on one with a cache directory
// (read back from disk).
func TestFinishedJobsBounded(t *testing.T) {
	for _, cacheDir := range []bool{false, true} {
		t.Run(fmt.Sprintf("cacheDir=%v", cacheDir), func(t *testing.T) {
			var opts Options
			if cacheDir {
				opts.CacheDir = t.TempDir()
			}
			s, ts := newTestServer(t, opts)
			const key = "ge-evicted-key"
			resp, first := submitWithKey(t, ts, testSpec(t), key)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("first submit: %d", resp.StatusCode)
			}
			if terminal, _, _ := readEvents(t, ts, first.ID); terminal != "done" {
				t.Fatalf("first job: %q", terminal)
			}
			_, want := get(t, ts, "/v1/jobs/"+first.ID+"/report")

			later := runSeeds(t, ts, 1000, maxFinishedJobs)
			for _, path := range []string{"", "/report", "/events"} {
				if code, _ := get(t, ts, "/v1/jobs/"+first.ID+path); code != http.StatusNotFound {
					t.Errorf("GET evicted job%s: %d, want 404", path, code)
				}
			}
			if ids := listIDs(t, ts); !slices.Equal(ids, later) {
				t.Errorf("list holds %d jobs, want the %d latest", len(ids), len(later))
			}
			s.mu.Lock()
			jobs, order, idem, mem := len(s.jobs), len(s.order), len(s.idem), s.cache.mem.Len()
			s.mu.Unlock()
			if jobs != maxFinishedJobs || order != maxFinishedJobs || idem != 0 || mem != maxFinishedJobs {
				t.Errorf("jobs/order/idem/cached reports %d/%d/%d/%d, want %d/%d/0/%d",
					jobs, order, idem, mem, maxFinishedJobs, maxFinishedJobs, maxFinishedJobs)
			}

			hits, misses := s.cacheHits.Value(), s.cacheMisses.Value()
			resp, retry := submitWithKey(t, ts, testSpec(t), key)
			if resp.Header.Get("Idempotency-Replayed") != "" || retry.ID == first.ID {
				t.Fatalf("retry of an evicted key replayed job %s", retry.ID)
			}
			if terminal, _, _ := readEvents(t, ts, retry.ID); terminal != "done" {
				t.Fatalf("retry: %q", terminal)
			}
			if _, got := get(t, ts, "/v1/jobs/"+retry.ID+"/report"); !bytes.Equal(got, want) {
				t.Errorf("retry report differs:\n got %s\nwant %s", got, want)
			}
			wantHits, wantMisses := hits, misses+1 // memory-only: recomputed
			if cacheDir {
				wantHits, wantMisses = hits+1, misses // read back from disk
			}
			if h, m := s.cacheHits.Value(), s.cacheMisses.Value(); h != wantHits || m != wantMisses {
				t.Errorf("retry cache hits/misses %d/%d, want %d/%d", h, m, wantHits, wantMisses)
			}
		})
	}
}

// TestRestartPastBound: a daemon that ran more than maxFinishedJobs jobs
// keeps only the latest in its journal, so a restart restores the same
// table; a journal that holds more (left by a crash between an eviction
// and its entry's removal) is brought back under the bound at boot.
func TestRestartPastBound(t *testing.T) {
	dir := t.TempDir()
	opts := Options{JournalDir: filepath.Join(dir, "journal"), CacheDir: filepath.Join(dir, "cache")}
	s1, ts1 := newTestServer(t, opts)
	ids := runSeeds(t, ts1, 2000, maxFinishedJobs+8)
	kept := ids[8:]
	before := listIDs(t, ts1)
	if !slices.Equal(before, kept) {
		t.Fatalf("list before restart holds %d jobs, want the %d latest", len(before), len(kept))
	}
	_, wantReport := get(t, ts1, "/v1/jobs/"+kept[0]+"/report")
	ts1.Close()
	// Shutdown waits for the workers, so every journal write and removal
	// has landed.
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(opts.JournalDir, "*.job.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != maxFinishedJobs {
		t.Errorf("journal holds %d entries, want %d", len(entries), maxFinishedJobs)
	}

	// Put back an entry for the oldest evicted job, as a crash between its
	// eviction and the removal would leave it.
	jl, err := journal.Open(opts.JournalDir)
	if err != nil {
		t.Fatal(err)
	}
	replayed, _, err := jl.Replay()
	if err != nil {
		t.Fatal(err)
	}
	stale := *replayed[0]
	stale.ID, stale.Seq = ids[0], 1
	if err := jl.Record(&stale); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, opts)
	if after := listIDs(t, ts2); !slices.Equal(after, kept) {
		t.Errorf("list after restart: %d jobs from %s, want %d from %s", len(after), after[0], len(kept), kept[0])
	}
	if _, got := get(t, ts2, "/v1/jobs/"+kept[0]+"/report"); !bytes.Equal(got, wantReport) {
		t.Errorf("restored report differs:\n got %s\nwant %s", got, wantReport)
	}
	if left, _, err := jl.Replay(); err != nil || len(left) != maxFinishedJobs || left[0].ID != kept[0] {
		t.Errorf("journal after boot: %d entries (err %v), want the %d from %s", len(left), err, maxFinishedJobs, kept[0])
	}
}

// TestFinishedJobsHeapFlat: the daemon's live heap after GC does not grow
// with the number of finished jobs once past the bound. Before finished
// jobs dropped their registries and were bounded, each kept about 0.1 MB.
func TestFinishedJobsHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1500 jobs")
	}
	_, ts := newTestServer(t, Options{})
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	runSeeds(t, ts, 3000, 300)
	at300 := live()
	runSeeds(t, ts, 3300, 1200)
	at1500 := live()
	t.Logf("live heap: %.1f MB after 300 jobs, %.1f MB after 1500", float64(at300)/(1<<20), float64(at1500)/(1<<20))
	// 1200 more jobs kept whole would add about 120 MB, kept without
	// their registries but unbounded about 3 MB.
	if at1500 > at300+1<<20 {
		t.Errorf("live heap grew from %.1f MB after 300 jobs to %.1f MB after 1500",
			float64(at300)/(1<<20), float64(at1500)/(1<<20))
	}
}

// TestJobMixLeavesDatasetIntact: the zoo's dataset is shared by every job
// in the process; a mix of campaigns (every site and target, detectors,
// sampling) must leave its bytes as synthesized.
func TestJobMixLeavesDatasetIntact(t *testing.T) {
	_, ts := newTestServer(t, Options{Jobs: 2, CampaignWorkers: 2})
	bfp, err := goldeneye.ParseFormat("bfp_e5m5")
	if err != nil {
		t.Fatal(err)
	}
	var specs []*JobSpec
	for _, site := range []inject.Site{goldeneye.SiteValue, goldeneye.SiteMetadata, goldeneye.SiteAccum} {
		for _, target := range []inject.Target{goldeneye.TargetNeuron, goldeneye.TargetWeight} {
			if site == goldeneye.SiteAccum && target == goldeneye.TargetWeight {
				continue // accumulator faults take neuron targets only
			}
			spec := testSpec(t)
			spec.Campaign.Site, spec.Campaign.Target, spec.Campaign.Format = site, target, bfp
			specs = append(specs, spec)
		}
	}
	guarded := testSpec(t)
	guarded.Campaign.Detectors = []detect.Spec{{Kind: "ranger"}}
	guarded.Campaign.Recovery = goldeneye.RecoverClamp
	sampled := testSpec(t)
	sampled.Campaign.Sampling = &sampling.Plan{Fraction: 0.5}
	specs = append(specs, guarded, sampled)

	var ids []string
	for _, spec := range specs {
		_, st := submit(t, ts, spec)
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if terminal, payload, _ := readEvents(t, ts, id); terminal != "done" {
			t.Errorf("job %s: %q (%s)", id, terminal, payload)
		}
	}
	_, ds, err := zoo.Pretrained("mlp")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Digest() != dataset.New(dataset.Default()).Digest() {
		t.Error("a job wrote into the shared dataset")
	}
}
