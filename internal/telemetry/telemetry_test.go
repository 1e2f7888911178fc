package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	c.Add(-5)
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter decreased to %d; negative deltas must be ignored", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*per)*0.5; got != want {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w % 4 * 50)) // 0, 50, 100, 150
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	b := h.Buckets()
	// Workers 0 and 4 observed 0 (≤1); 1 and 5 observed 50 (≤100); 2 and 6
	// observed 100 (≤100); 3 and 7 observed 150 (+Inf).
	want := []int64{2 * per, 0, 4 * per, 2 * per}
	for i, wb := range want {
		if b[i].Count != wb {
			t.Fatalf("bucket %d = %d, want %d (buckets %+v)", i, b[i].Count, wb, b)
		}
	}
	if !math.IsInf(b[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", b[3].UpperBound)
	}
	if got, want := h.Sum(), float64(2*per*0+2*per*50+2*per*100+2*per*150); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Histogram("x", []float64{1}) != r.Histogram("x", nil) {
		t.Fatal("same name must return the same histogram")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared_total").Inc()
				r.Counter(Label("sharded_total", "worker", fmt.Sprint(w))).Inc()
				r.Histogram("lat_seconds", DurationBuckets).Observe(1e-4)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8*500 {
		t.Fatalf("shared counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("lat_seconds", nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("goldeneye_test_injections_total").Add(42)
	r.Gauge("goldeneye_test_planned").Set(100)
	h := r.Histogram(Label("goldeneye_test_seconds", "layer", "0:fc(linear)"), []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.RegisterCollector(func(set func(string, float64)) {
		set("goldeneye_test_collected", 7)
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE goldeneye_test_collected gauge
goldeneye_test_collected 7
# TYPE goldeneye_test_injections_total counter
goldeneye_test_injections_total 42
# TYPE goldeneye_test_planned gauge
goldeneye_test_planned 100
# TYPE goldeneye_test_seconds histogram
goldeneye_test_seconds_bucket{layer="0:fc(linear)",le="0.1"} 1
goldeneye_test_seconds_bucket{layer="0:fc(linear)",le="1"} 2
goldeneye_test_seconds_bucket{layer="0:fc(linear)",le="+Inf"} 3
goldeneye_test_seconds_sum{layer="0:fc(linear)"} 5.55
goldeneye_test_seconds_count{layer="0:fc(linear)"} 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestJSONExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(3)
	r.Gauge("g").Set(1.5)
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64   `json:"count"`
			Sum     float64 `json:"sum"`
			Buckets []struct {
				LE    string `json:"le"`
				Count int64  `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Counters["c_total"] != 3 || doc.Gauges["g"] != 1.5 {
		t.Fatalf("unexpected scalar values: %+v", doc)
	}
	h := doc.Histograms["h_seconds"]
	if h.Count != 1 || h.Sum != 0.5 || len(h.Buckets) != 2 ||
		h.Buckets[0].LE != "1" || h.Buckets[0].Count != 1 || h.Buckets[1].LE != "+Inf" {
		t.Fatalf("unexpected histogram: %+v", h)
	}
}

func TestLabel(t *testing.T) {
	if got, want := Label("x_total", "worker", "3"), `x_total{worker="3"}`; got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
	if got, want := Label(`x{a="b"}`, "c", "d"), `x{a="b",c="d"}`; got != want {
		t.Fatalf("Label append = %q, want %q", got, want)
	}
	base, labels := splitName(`x{a="b"}`)
	if base != "x" || labels != `a="b"` {
		t.Fatalf("splitName = %q, %q", base, labels)
	}
}

func TestSpan(t *testing.T) {
	h := NewHistogram(DurationBuckets)
	s := StartSpan(h)
	time.Sleep(time.Millisecond)
	if d := s.End(); d < time.Millisecond {
		t.Fatalf("span measured %v, want >= 1ms", d)
	}
	if h.Count() != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count())
	}
	var inert Span
	if inert.End() != 0 {
		t.Fatal("zero Span must be inert")
	}
	if StartSpan(nil).End() != 0 {
		t.Fatal("nil-histogram span must be inert")
	}
}

func TestWatchProgress(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	var done Counter
	stop := WatchProgress(w, "test", &done, 100, 5*time.Millisecond)
	done.Add(50)
	time.Sleep(25 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "50/100") || !strings.Contains(out, "50.0%") {
		t.Fatalf("progress output missing count/percent: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("final line must end with newline: %q", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	addr, shutdown, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if !strings.Contains(get("/metrics"), "up_total 1") {
		t.Fatal("/metrics missing counter")
	}
	if !strings.Contains(get("/metrics.json"), `"up_total": 1`) {
		t.Fatal("/metrics.json missing counter")
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Fatal("/debug/pprof/ not serving")
	}
}

// TestMergeExposition pins the regrouping of a concatenated exposition:
// each family becomes one contiguous group led by its first TYPE line,
// histogram series follow their typed base, and stray comments go last.
func TestMergeExposition(t *testing.T) {
	in := `# TYPE jobs_total counter
jobs_total{state="done"} 1
# TYPE lat histogram
lat_bucket{le="+Inf"} 1
lat_sum 0.5
lat_count 1
# node n1 unreachable
# TYPE jobs_total counter
jobs_total{node="n2",state="done"} 2
# TYPE lat histogram
lat_bucket{node="n2",le="+Inf"} 3
lat_sum{node="n2"} 1.5
lat_count{node="n2"} 3
other_total{node="n2"} 4
`
	want := `# TYPE jobs_total counter
jobs_total{state="done"} 1
jobs_total{node="n2",state="done"} 2
# TYPE lat histogram
lat_bucket{le="+Inf"} 1
lat_sum 0.5
lat_count 1
lat_bucket{node="n2",le="+Inf"} 3
lat_sum{node="n2"} 1.5
lat_count{node="n2"} 3
other_total{node="n2"} 4
# node n1 unreachable
`
	var b bytes.Buffer
	if err := MergeExposition(&b, []byte(in)); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("merged exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}
