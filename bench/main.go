// Command bench is goldeneye's performance benchmark. It runs four
// workloads — two fault-injection campaign loops, a format sweep and a
// closed-loop service mix — each in its own child process, checks their
// outputs, and prints every metric by name with its unit as JSON.
//
//	bash bench/run.sh                              # all workloads, seed 1
//	bash bench/run.sh --workload service --seed 3  # one workload
//	bash bench/run.sh --trace 1 --trace-dir DIR    # per-layer metrics + Chrome traces
//	bash bench/run.sh --runs 5                     # medians, quartiles and spreads
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"goldeneye/internal/dataset"
	"goldeneye/internal/zoo"
)

// expectedDigests pins each workload's output digest at seed 1, keyed by
// workload name ("<name>/smoke" for the -smoke sizes).
//
//go:embed expected.json
var expectedDigests []byte

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceDir string
	runs     int
	smoke    bool
	child    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of each workload's measured window")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with -trace 1, write one Chrome trace file per workload here")
	fs.IntVar(&o.runs, "runs", 1, "run each workload this many times and print medians, quartiles and spreads")
	fs.BoolVar(&o.smoke, "smoke", false, "one round with tiny counts (a correctness check, not a measurement)")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.runs < 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	var selected []*workload
	for _, w := range workloads {
		if o.workload == "" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.child {
		line, _ := json.Marshal(measure(o, selected[0], stderr))
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	if err := prepare(selected, stderr); err != nil {
		fmt.Fprintln(stderr, "bench: prepare:", err)
		return 1
	}
	var results []*result
	for range o.runs {
		for _, w := range selected {
			res, err := spawn(o, w, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			line, _ := json.Marshal(res)
			fmt.Fprintf(stdout, "%s\n", line)
			results = append(results, res)
		}
	}
	if o.runs > 1 {
		printSpreads(stdout, results)
	}
	last := summarize(results, o.trace == 1)
	line, _ := json.Marshal(last)
	fmt.Fprintf(stdout, "%s\n", line)
	if !last.Correct {
		return 1
	}
	return 0
}

// prepare trains any zoo model the selected workloads need and that is
// not cached yet, so training never lands inside a measured run.
func prepare(selected []*workload, stderr io.Writer) error {
	need := map[string]bool{}
	for _, w := range selected {
		for _, m := range w.models {
			need[m] = true
		}
	}
	names := make([]string, 0, len(need))
	for m := range need {
		names = append(names, m)
	}
	sort.Strings(names)
	ds := dataset.New(dataset.Default())
	for _, m := range names {
		fmt.Fprintf(stderr, "bench: preparing zoo model %s in %s\n", m, zoo.DefaultDir())
		if _, err := zoo.PretrainedOn(zoo.DefaultDir(), m, ds); err != nil {
			return err
		}
	}
	return nil
}

// childGrace is how long a child may run past its measured window (setup
// repetitions, warm-up, output checks) before it is killed as hung.
const childGrace = 2 * time.Minute

// spawn runs one workload in a child process, so its peak RSS and GC state
// are its own, and adds the child's peak RSS to the result.
func spawn(o options, w *workload, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace)}
	if o.traceDir != "" {
		args = append(args, "-trace-dir", o.traceDir)
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(o.seconds*float64(time.Second))+childGrace)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var res result
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("child exited (%v) without a result: %w", runErr, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		// Linux reports ru_maxrss in KiB.
		res.MaxRSSMB = float64(ru.Maxrss) / 1024
	}
	if o.trace == 0 {
		res.Metrics["max_rss_mb"] = res.MaxRSSMB
	}
	if o.seed == 1 {
		if err := checkDigest(&res); err != nil {
			res.Failed++
			res.Failures = append(res.Failures, err.Error())
			res.Correct = false
		}
		res.Attempted++
	}
	return &res, nil
}

// checkDigest compares a seed-1 result's digest with the pinned one. A
// workload without a pinned digest (a newly added one) passes.
func checkDigest(res *result) error {
	var want map[string]string
	if err := json.Unmarshal(expectedDigests, &want); err != nil {
		return fmt.Errorf("pinned digests: %w", err)
	}
	key := res.Workload
	if res.Smoke {
		key += "/smoke"
	}
	if w, ok := want[key]; ok && w != res.Digest {
		return fmt.Errorf("output digest %s does not match the pinned %s", res.Digest, w)
	}
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// result is one workload run. Metrics holds the end-to-end metrics, or
// with -trace 1 the per-layer ones; Layers holds the traced spans' totals
// and self times by span name.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Smoke     bool     `json:"smoke,omitempty"`
	Traced    bool     `json:"traced,omitempty"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Digest    string   `json:"digest"`
	Ops       int      `json:"ops"`
	WindowS   float64  `json:"window_s"`
	// SetupScale and WindowScale are the host scales of the setup and of
	// the measured window (see hostspeed.go); Samples hold unscaled values.
	SetupScale  float64              `json:"setup_scale"`
	WindowScale float64              `json:"window_scale"`
	MaxRSSMB    float64              `json:"max_rss_mb"`
	Metrics     map[string]float64   `json:"metrics"`
	Samples     map[string][]float64 `json:"samples"`
	Layers      map[string]layerTime `json:"layers,omitempty"`
	TraceFile   string               `json:"trace_file,omitempty"`
	Host        host                 `json:"host"`
}

// finalMetric is one metric of the final line: value and unit.
type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// final is the last line of standard output.
type final struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

// summarize folds the runs into the final line. One workload's metrics keep
// their names (the median across runs); with several workloads each name
// is prefixed by "<workload>.".
func summarize(results []*result, traced bool) final {
	f := final{Correct: true, Metrics: map[string]finalMetric{}}
	specs := e2eMetrics
	if traced {
		specs = layerMetrics
	}
	byWorkload := map[string][]*result{}
	var order []string
	for _, r := range results {
		f.Correct = f.Correct && r.Correct
		f.Attempted += r.Attempted
		f.Failed += r.Failed
		if byWorkload[r.Workload] == nil {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, w := range order {
		for _, s := range specs {
			var vals []float64
			for _, r := range byWorkload[w] {
				vals = append(vals, r.Metrics[s.Name])
			}
			name := s.Name
			if len(order) > 1 {
				name = w + "." + s.Name
			}
			f.Metrics[name] = finalMetric{Value: median(vals), Unit: s.Unit}
		}
	}
	return f
}

// printSpreads prints, per workload and end-to-end metric, the median,
// quartiles and spread (interquartile distance over the median) across
// the runs — the numbers the benchmark's bounds are set from.
func printSpreads(w io.Writer, results []*result) {
	type stat struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Unit     string  `json:"unit"`
		Runs     int     `json:"runs"`
		Median   float64 `json:"median"`
		Q1       float64 `json:"q1"`
		Q3       float64 `json:"q3"`
		Spread   float64 `json:"spread"`
		Bound    float64 `json:"bound,omitempty"`
	}
	var names []string
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	for _, wl := range names {
		for _, s := range e2eMetrics {
			var vals []float64
			for _, r := range results {
				if v, ok := r.Metrics[s.Name]; ok && r.Workload == wl {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vals)
			line, _ := json.Marshal(stat{Workload: wl, Metric: s.Name, Unit: s.Unit, Runs: len(vals),
				Median: med, Q1: q1, Q3: q3, Spread: ratio(q3-q1, med), Bound: s.Bound})
			fmt.Fprintf(w, "%s\n", line)
		}
	}
}

// host records where a result was measured. NumCPU counts the CPUs in the
// process's affinity mask, which is what nproc(1) prints.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit,omitempty"`
}

func hostInfo() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit("."),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit reads the checked-out commit from dir/.git without running
// git; "" when dir is not a git checkout.
func gitCommit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}
