package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent process re-executes itself with -child for every workload.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) (benchmarkFile, map[string]json.RawMessage) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b, raw
}

// TestBenchmarkSchema checks BENCHMARK.json against the limits on its shape
// and against the metrics and workloads this program emits.
func TestBenchmarkSchema(t *testing.T) {
	b, raw := readBenchmarkFile(t)
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(raw))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(b.Workloads))
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", len(b.EndToEnd), len(b.PerLayer))
	}
	var setupBound, maxBound float64
	for _, m := range b.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present and carry the largest bound (%v < %v)", setupBound, maxBound)
	}
	for _, m := range b.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	sameSpecs(t, "end_to_end", b.EndToEnd, e2eMetrics)
	sameSpecs(t, "per_layer", b.PerLayer, layerMetrics)

	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", b.RunSeconds)
	}
	for _, c := range b.Command {
		if strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command element %q leaves the checkout", c)
		}
	}
}

func sameSpecs(t *testing.T, key string, file, code []metricSpec) {
	t.Helper()
	if len(file) != len(code) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", key, len(file), len(code))
		return
	}
	for i := range file {
		if file[i] != code[i] {
			t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", key, i, file[i], code[i])
		}
	}
}

// TestSmokeTrace runs every workload once at -smoke sizes with tracing on:
// each must pass its output checks, match its pinned digest and emit
// exactly the per-layer metrics, and write one trace file.
func TestSmokeTrace(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "1", "-trace-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(workloads)+1 {
		t.Fatalf("%d output lines, want one per workload plus the final one", len(lines))
	}
	for _, l := range lines[:len(workloads)] {
		var r result
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d/%d: %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Failures)
		}
		if len(r.Metrics) != len(layerMetrics) {
			t.Errorf("%s: %d metrics, want %d", r.Workload, len(r.Metrics), len(layerMetrics))
		}
		for _, s := range layerMetrics {
			if _, ok := r.Metrics[s.Name]; !ok {
				t.Errorf("%s: missing metric %s", r.Workload, s.Name)
			}
		}
		if data, err := os.ReadFile(r.TraceFile); err != nil || !json.Valid(data) {
			t.Errorf("%s: trace file %q unreadable or invalid: %v", r.Workload, r.TraceFile, err)
		}
	}
	var f map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &f); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := f[k]; !ok || len(f) != 4 {
			t.Fatalf("final line %s: want exactly correct, attempted, failed, metrics", lines[len(lines)-1])
		}
	}
}

// TestWrongDigestFails pins a deliberately wrong digest: the run must
// report the failed check and exit non-zero.
func TestWrongDigestFails(t *testing.T) {
	pinned := expectedDigests
	defer func() { expectedDigests = pinned }()
	expectedDigests = []byte(`{"sweep-formats/smoke": "0000"}`)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-workload", "sweep-formats"}, &stdout, &stderr)
	var f final
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &f); err != nil {
		t.Fatal(err)
	}
	if code == 0 || f.Correct || f.Failed != 1 {
		t.Fatalf("exit %d, correct=%v, failed=%d; want a reported digest failure\n%s", code, f.Correct, f.Failed, &stdout)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(n=4) (exclusive method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}
