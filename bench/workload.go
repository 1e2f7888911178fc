package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"goldeneye/internal/rng"
)

// load is the concurrency every workload runs at: campaign workers for the
// campaign loops, closed-loop clients for the service. It is fixed, not
// derived from the host, so every host runs the same work.
const load = 2

// workload is one benchmark workload: the zoo models it needs, how often
// its one-time setup runs (setup_s is the median, which keeps a slow
// repetition — a GC, a noisy neighbour — out of the number; a cheap setup
// runs more often), and a constructor for a fresh runner per run.
type workload struct {
	name      string
	models    []string
	setupReps int
	runner    func() runner
}

// workloads lists every workload in run order.
var workloads = []*workload{fiResNet, fiViTAccum, sweepFormatsWorkload, serviceWorkload}

// runner is one run of a workload. setup builds what the measured window
// needs (it runs setupReps times, each after teardown of the previous);
// warmup runs one untimed operation; window runs operations until the
// deadline; check runs the untimed output cross-checks; layers adds the
// workload's per-layer metrics from the traced operations.
type runner interface {
	setup(e *env) error
	teardown()
	warmup(e *env) error
	window(e *env, deadline time.Time)
	check(e *env)
	layers(e *env, m map[string]float64)
}

// env is the state one workload run shares with its runner.
type env struct {
	o      options
	rng    *rng.RNG
	tr     *tracer // records only in a traced run
	off    *tracer // never records: the untraced half of a traced run
	stderr io.Writer

	attempted, failed int
	failures          []string

	// outputs holds the first digestOps operations' outputs (report wire
	// JSON or accuracy bits) by operation index.
	outputs   map[int][]byte
	digestOps int

	opsPerSec       []float64 // one per round
	latencies       []float64 // every measured operation, seconds
	setupRefs       []float64 // reference timings before each setup repetition
	roundRefs       []float64 // reference timings between rounds
	tracedLatency   []float64 // traced run: operations with spans
	untracedLatency []float64 // traced run: comparable operations without
	delta           counterDelta
	setupParts      map[string][]float64 // setup phase durations by metric name
	ops             int
}

func newEnv(o options, stderr io.Writer) *env {
	return &env{
		o:          o,
		rng:        rng.New(o.seed),
		tr:         newTracer(o.trace == 1),
		off:        newTracer(false),
		stderr:     stderr,
		outputs:    map[int][]byte{},
		setupParts: map[string][]float64{},
	}
}

// spans returns the tracer an operation records into.
func (e *env) spans(traced bool) *tracer {
	if traced {
		return e.tr
	}
	return e.off
}

// fail counts one failed operation or output check.
func (e *env) fail(format string, args ...any) {
	e.failed++
	if len(e.failures) < 20 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// output keeps an operation's output for the digest.
func (e *env) output(op int, b []byte) {
	if op < e.digestOps {
		e.outputs[op] = b
	}
}

// part times one phase of setup under its per-layer metric name.
func (e *env) part(name string, f func() error) error {
	id := e.tr.begin(name, -1, -1, 0)
	start := time.Now()
	err := f()
	e.setupParts[name] = append(e.setupParts[name], time.Since(start).Seconds())
	e.tr.end(id)
	return err
}

// rounds runs round until the deadline has passed — always at least once,
// exactly once under -smoke — and records each round's work rate. The
// reference is timed before every round and after the last, outside the
// rounds' time. In a traced run even rounds are traced and odd ones are
// not, which measures the tracing overhead inside the run; counters are
// read around the traced rounds only.
func (e *env) rounds(deadline time.Time, round func(r int, traced bool) (work float64)) {
	for r := 0; ; r++ {
		e.roundRefs = append(e.roundRefs, refSeconds())
		if r > 0 && (e.o.smoke || time.Now().After(deadline)) {
			return
		}
		traced := e.o.trace == 1 && r%2 == 0
		var before counters
		if traced {
			before = snapshot(true)
		}
		start := time.Now()
		work := round(r, traced)
		elapsed := time.Since(start)
		if traced {
			e.delta.add(before, snapshot(true))
		}
		if work > 0 {
			e.opsPerSec = append(e.opsPerSec, work/elapsed.Seconds())
		}
	}
}

// opLatency records one measured operation's latency.
func (e *env) opLatency(d time.Duration, traced, comparable bool) {
	e.latencies = append(e.latencies, d.Seconds())
	e.ops++
	if e.o.trace == 1 && comparable {
		if traced {
			e.tracedLatency = append(e.tracedLatency, d.Seconds())
		} else {
			e.untracedLatency = append(e.untracedLatency, d.Seconds())
		}
	}
}

// digest is the SHA-256 over the kept outputs in operation order.
func (e *env) digest() string {
	h := sha256.New()
	idx := make([]int, 0, len(e.outputs))
	for i := range e.outputs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		h.Write(e.outputs[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measure runs one workload end to end in this process: setup repetitions,
// the warm-up, the measured window, the output checks, and the metrics.
func measure(o options, w *workload, stderr io.Writer) *result {
	e := newEnv(o, stderr)
	res := &result{Workload: w.name, Seed: o.seed, Smoke: o.smoke, Traced: o.trace == 1,
		Metrics: map[string]float64{}, Host: hostInfo()}
	finish := func() *result {
		res.Attempted, res.Failed, res.Failures = max(e.attempted, 1), e.failed, e.failures
		res.Correct = e.failed == 0
		return res
	}
	r := w.runner()
	reps := w.setupReps
	if o.smoke {
		reps = 1
	}
	defer r.teardown()
	var setupS []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			r.teardown()
		}
		e.setupRefs = append(e.setupRefs, refSeconds())
		start := time.Now()
		err := r.setup(e)
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			e.fail("setup: %v", err)
			return finish()
		}
	}
	if err := r.warmup(e); err != nil {
		e.attempted++
		e.fail("warm-up: %v", err)
		return finish()
	}

	start := time.Now()
	r.window(e, start.Add(time.Duration(o.seconds*float64(time.Second))))
	res.WindowS = time.Since(start).Seconds()
	r.check(e)

	res.Ops, res.Digest = e.ops, e.digest()
	res.SetupScale, res.WindowScale = hostScale(e.setupRefs), hostScale(e.roundRefs)
	res.Samples = map[string][]float64{"setup_s": setupS, "ops_per_s": e.opsPerSec, "latency_s": e.latencies,
		"setup_ref_s": e.setupRefs, "round_ref_s": e.roundRefs}
	if o.trace == 0 {
		res.Metrics["setup_s"] = median(setupS) / res.SetupScale
		res.Metrics["ops_per_s"] = median(e.opsPerSec) * res.WindowScale
		res.Metrics["latency_p50_s"] = median(e.latencies) / res.WindowScale
		return finish()
	}

	for name, vals := range e.setupParts {
		res.Metrics[name] = median(vals)
	}
	e.delta.metrics(res.Metrics)
	r.layers(e, res.Metrics)
	if len(e.tracedLatency) > 0 && len(e.untracedLatency) > 0 {
		res.Metrics["trace_overhead_pct"] = 100 * (median(e.tracedLatency)/median(e.untracedLatency) - 1)
	}
	for _, s := range layerMetrics {
		if _, ok := res.Metrics[s.Name]; !ok {
			res.Metrics[s.Name] = 0
		}
	}
	res.Layers = e.tr.layers()
	if o.traceDir != "" {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed))
		if err := e.tr.writeChrome(path, "bench "+w.name); err != nil {
			e.fail("trace file: %v", err)
		} else {
			res.TraceFile = path
		}
	}
	return finish()
}
