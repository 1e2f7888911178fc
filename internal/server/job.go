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
	// start at zero for every job and cannot bleed between jobs.
	reg *telemetry.Registry

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

// setRunning transitions a queued job to running; it reports false when the
// job already reached a terminal state (cancelled while queued), in which
// case the worker must skip it.
func (j *job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	return true
}

// remoteDone records an Executor run's outcome flags and, because the
// campaign ran elsewhere and never fed the job's registry, folds the
// report's totals into the status counters.
func (j *job) remoteDone(rep *goldeneye.CampaignReport, degraded bool) {
	j.mu.Lock()
	j.degraded = degraded
	j.mu.Unlock()
	if rep != nil {
		j.reg.Counter(goldeneye.MetricCampaignMismatches).Add(int64(rep.Mismatches))
		j.reg.Counter(goldeneye.MetricCampaignDetected).Add(int64(rep.Detected))
		j.reg.Counter(goldeneye.MetricCampaignAborted).Add(int64(rep.Aborted))
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
func (j *job) finish(state JobState, rep *goldeneye.CampaignReport, err error, counted *telemetry.Counter) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	// The daemon keeps every finished job, so it drops the evaluation
	// pool, which the wire form omits anyway: otherwise each job would hold
	// its samples for the daemon's lifetime.
	j.cfg.Pool = nil
	if rep != nil {
		rep.Config.Pool = nil
	}
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

// snapshot assembles the job's observable state for the status endpoint
// and the SSE stream. Counter reads are lock-free; the registry creates
// absent counters at zero, so a snapshot of a queued job is all zeros.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	state := j.state
	cached, degraded := j.cached, j.degraded
	detectors := j.detectors
	total := j.cfg.PlannedInjections()
	if t := j.total.Load(); t > 0 {
		total = int(t)
	}
	var errText string
	if j.err != nil {
		errText = j.err.Error()
	}
	j.mu.Unlock()

	st := JobStatus{
		ID:       j.id,
		State:    state,
		Model:    j.spec.Model,
		Cached:   cached,
		Seq:      j.seq.Load(),
		Done:     int(j.done.Load()),
		Total:    total,
		Error:    errText,
		Degraded: degraded,
	}
	st.Mismatches = j.reg.Counter(goldeneye.MetricCampaignMismatches).Value()
	st.Detected = j.reg.Counter(goldeneye.MetricCampaignDetected).Value()
	st.Aborted = j.reg.Counter(goldeneye.MetricCampaignAborted).Value()
	if len(detectors) > 0 {
		st.PerDetector = make(map[string]int64, len(detectors))
		for _, name := range detectors {
			st.PerDetector[name] = j.reg.Counter(
				telemetry.Label(goldeneye.MetricCampaignDetections, "detector", name)).Value()
		}
	}
	return st
}
