package server

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"

	"goldeneye"
	"goldeneye/internal/telemetry"
)

// job is one submitted campaign moving through the service lifecycle. Its
// immutable identity (id, cache key, spec) is set at submission; mutable
// state lives behind mu except the injection-progress counter, which the
// campaign engine's Progress callback stores atomically so SSE snapshots
// never contend with workers.
type job struct {
	id   string
	key  string
	hash uint64
	spec *JobSpec

	// seqNum is the numeric submission sequence behind the id; idemKey and
	// specJSON are the client's Idempotency-Key and the accepted spec's
	// canonical encoding. All three are journal bookkeeping, immutable
	// after submission (or journal replay).
	seqNum   int64
	idemKey  string
	specJSON json.RawMessage

	// cfg is the live campaign configuration. The worker overwrites it once
	// with the fully resolved version (default layer filled in) before the
	// run starts; reads go through snapshotCfg.
	cfg goldeneye.CampaignConfig

	// workers is the resolved parallel worker count.
	workers int

	// detectors names the armed detection pipeline, for per-detector SSE
	// counters.
	detectors []string

	// reg is the job's private telemetry registry; the campaign engine
	// feeds it and snapshots read it. Keeping it per-job means counters
	// start at zero for every job and cannot bleed between jobs. The
	// terminal transition freezes the counters a status reports into final
	// and drops the registry, with its per-layer histograms; both fields
	// are guarded by mu.
	reg   *telemetry.Registry
	final jobCounters

	// done counts executed injections, stored by the Progress callback.
	done atomic.Int64

	// total is the engine-reported progress denominator. For exhaustive
	// campaigns it matches PlannedInjections; a sampled campaign reports its
	// selection's executed-count total instead, which only the engine knows.
	// Zero until the first progress callback.
	total atomic.Int64

	// seq is the monotonic progress sequence: one tick per engine progress
	// callback plus one at the terminal transition. SSE frames carry it as
	// their event id, which is what makes Last-Event-ID resume work.
	seq atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc

	// finished closes exactly once when the job reaches a terminal state;
	// SSE streams and tests select on it.
	finished chan struct{}

	mu       sync.Mutex
	state    JobState
	cached   bool
	degraded bool // an Executor ran the job on reduced capacity
	report   *goldeneye.CampaignReport
	err      error

	// jmu serializes this job's journal writes; journaled is the highest
	// state rank written so far. Together they keep journal transitions
	// monotonic even when the submit path's "queued" record races the
	// worker's "running"/terminal ones (the stale write is dropped).
	jmu       sync.Mutex
	journaled int
}

func newJob(id, key string, hash uint64, spec *JobSpec, workers int) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:       id,
		key:      key,
		hash:     hash,
		spec:     spec,
		cfg:      spec.Campaign,
		workers:  workers,
		reg:      telemetry.NewRegistry(),
		ctx:      ctx,
		cancel:   cancel,
		finished: make(chan struct{}),
		state:    JobQueued,
	}
}

// progressed records campaign progress from the engine's Progress hook:
// the cumulative injection count, the engine's denominator, plus one
// sequence tick.
func (j *job) progressed(done, total int) {
	j.done.Store(int64(done))
	j.total.Store(int64(total))
	j.seq.Add(1)
}

// setRunning transitions a queued job to running and returns the registry
// its campaign feeds; it reports false when the job already reached a
// terminal state (cancelled while queued), in which case the worker must
// skip it.
func (j *job) setRunning() (*telemetry.Registry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return nil, false
	}
	j.state = JobRunning
	return j.reg, true
}

// remoteDone records an Executor run's outcome flags and, because the
// campaign ran elsewhere and never fed the job's registry reg, folds the
// report's totals into the status counters.
func (j *job) remoteDone(reg *telemetry.Registry, rep *goldeneye.CampaignReport, degraded bool) {
	j.mu.Lock()
	j.degraded = degraded
	j.mu.Unlock()
	if rep != nil {
		reg.Counter(goldeneye.MetricCampaignMismatches).Add(int64(rep.Mismatches))
		reg.Counter(goldeneye.MetricCampaignDetected).Add(int64(rep.Detected))
		reg.Counter(goldeneye.MetricCampaignAborted).Add(int64(rep.Aborted))
	}
}

// setResolved records the fully resolved campaign configuration the run
// will execute (server-side layer selection applied).
func (j *job) setResolved(cfg goldeneye.CampaignConfig, detectors []string) {
	j.mu.Lock()
	j.cfg = cfg
	j.detectors = detectors
	j.mu.Unlock()
}

func (j *job) snapshotCfg() goldeneye.CampaignConfig {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cfg
}

// finish moves the job to a terminal state exactly once, reporting whether
// this call made the transition; later calls are ignored (a cancel racing
// completion keeps whichever landed first). A transition increments
// counted (when non-nil) before any waiter can observe the terminal state,
// so a client that saw the job end also sees it counted.
//
// A finished job keeps only what its status and report show: the
// evaluation pool, the registry and the progress hook are dropped, the
// counters a status reports are frozen, and the job context is released.
func (j *job) finish(state JobState, rep *goldeneye.CampaignReport, err error, counted *telemetry.Counter) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.cfg = released(j.cfg)
	j.final = readCounters(j.reg, j.detectors)
	j.reg = nil
	j.cancel()
	j.state = state
	j.report = rep
	j.err = err
	if state == JobDone {
		if rep != nil && rep.Sampling != nil {
			// A sampled campaign finishes when its selection (possibly cut
			// short by sequential stopping) is exhausted, not at the planned
			// fault-space size.
			executed := int64(rep.Injections + rep.Aborted)
			j.done.Store(executed)
			j.total.Store(executed)
		} else {
			// Shard jobs execute only their stride slice; the job's total is
			// the planned count, not the whole campaign's.
			j.done.Store(int64(j.cfg.PlannedInjections()))
		}
	}
	if counted != nil {
		counted.Inc()
	}
	j.seq.Add(1)
	close(j.finished)
	return true
}

// result returns the terminal report and error (nil report for failed or
// cancelled-before-completion jobs).
func (j *job) result() (*goldeneye.CampaignReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.err
}

// released returns cfg without what ties it to a run: the evaluation pool
// (which the wire form omits anyway), the job's registry and its progress
// hook. Finished jobs and cached reports keep only this form, so neither
// holds its samples, its per-layer histograms or its job alive.
func released(cfg goldeneye.CampaignConfig) goldeneye.CampaignConfig {
	cfg.Pool = nil
	cfg.Metrics = nil
	cfg.Progress = nil
	return cfg
}

// jobCounters are the campaign counters a status reports.
type jobCounters struct {
	mismatches, detected, aborted int64
	perDetector                   map[string]int64 // nil without detectors
	calibration                   string
}

// readCounters reads the status counters from reg; the registry creates
// absent counters at zero, so a queued job's counters are all zero.
func readCounters(reg *telemetry.Registry, detectors []string) jobCounters {
	c := jobCounters{
		mismatches:  reg.Counter(goldeneye.MetricCampaignMismatches).Value(),
		detected:    reg.Counter(goldeneye.MetricCampaignDetected).Value(),
		aborted:     reg.Counter(goldeneye.MetricCampaignAborted).Value(),
		calibration: goldeneye.CalibrationCacheOutcome(reg),
	}
	if len(detectors) > 0 {
		c.perDetector = make(map[string]int64, len(detectors))
		for _, name := range detectors {
			c.perDetector[name] = reg.Counter(
				telemetry.Label(goldeneye.MetricCampaignDetections, "detector", name)).Value()
		}
	}
	return c
}

// snapshot assembles the job's observable state for the status endpoint
// and the SSE stream. A live job's counters are read lock-free from its
// registry, a finished job's from the frozen copy.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	state := j.state
	cached, degraded := j.cached, j.degraded
	reg, detectors, c := j.reg, j.detectors, j.final
	total := j.cfg.PlannedInjections()
	if t := j.total.Load(); t > 0 {
		total = int(t)
	}
	var errText string
	if j.err != nil {
		errText = j.err.Error()
	}
	j.mu.Unlock()
	if reg != nil {
		c = readCounters(reg, detectors)
	}
	return JobStatus{
		ID:          j.id,
		State:       state,
		Model:       j.spec.Model,
		Cached:      cached,
		Seq:         j.seq.Load(),
		Done:        int(j.done.Load()),
		Total:       total,
		Mismatches:  c.mismatches,
		Detected:    c.detected,
		Aborted:     c.aborted,
		PerDetector: c.perDetector,
		Calibration: c.calibration,
		Error:       errText,
		Degraded:    degraded,
	}
}
