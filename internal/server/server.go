package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goldeneye"
	"goldeneye/internal/checkpoint"
	"goldeneye/internal/detect"
	"goldeneye/internal/exper"
	"goldeneye/internal/server/journal"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/zoo"
)

// Service-level metric names, exposed on /metrics next to the engine's
// campaign metrics (see internal/telemetry/README.md for the inventory).
const (
	MetricQueueDepth    = "goldeneye_server_queue_depth"
	MetricJobsInFlight  = "goldeneye_server_jobs_inflight"
	MetricJobsTotal     = "goldeneye_server_jobs_total" // labeled state="done|failed|cancelled"
	MetricSubmissions   = "goldeneye_server_submissions_total"
	MetricRejected      = "goldeneye_server_rejected_total"
	MetricCacheHits     = "goldeneye_server_cache_hits_total"
	MetricCacheMisses   = "goldeneye_server_cache_misses_total"
	MetricCacheHitRatio = "goldeneye_server_cache_hit_ratio"
	MetricCacheErrors   = "goldeneye_server_cache_errors_total"

	// Resilience-layer metrics: journal write-ahead activity, boot-time
	// replay outcomes, idempotent submission dedup, SSE stream resumes,
	// and per-job deadline expiries.
	MetricJournalRecords  = "goldeneye_server_journal_records_total"
	MetricJournalErrors   = "goldeneye_server_journal_errors_total"
	MetricJournalReplayed = "goldeneye_server_journal_replayed_total" // labeled outcome="restored|requeued|skipped"
	MetricIdempotentHits  = "goldeneye_server_idempotent_hits_total"
	MetricSSEResumes      = "goldeneye_server_sse_resumes_total"
	MetricDeadlineExpired = "goldeneye_server_deadline_expired_total"
)

// maxFinishedJobs bounds the finished jobs the daemon keeps, and the
// reports its result cache keeps in memory. Past it the oldest finished
// jobs leave the job table, the idempotency index and the journal; their
// reports stay on the cache's disk store, if it has one.
const maxFinishedJobs = 256

// Options configures a campaign service.
type Options struct {
	// QueueSize bounds how many submitted jobs may wait for a worker
	// (default 16). A full queue rejects submissions with 429 and a
	// Retry-After hint rather than buffering without bound.
	QueueSize int

	// Jobs is the worker-pool size: how many campaigns run concurrently
	// (default 1).
	Jobs int

	// CampaignWorkers is the per-job parallel worker count applied when a
	// spec leaves Workers unset (default 1, the serial-identical path).
	CampaignWorkers int

	// CacheDir persists completed results through internal/checkpoint so
	// the cache survives daemon restarts ("" = in-memory cache only).
	CacheDir string

	// JournalDir persists the write-ahead job journal ("" = no journal).
	// With a journal, a daemon that crashes — or is SIGKILLed mid-campaign
	// — replays it at boot: terminal jobs are restored (reports served
	// from the result cache) and queued or running jobs are re-queued and
	// re-executed bit-identically from their deterministic seed.
	JournalDir string

	// ZooDir overrides the pre-trained model cache location ("" = the zoo
	// default).
	ZooDir string

	// Registry receives the service metrics (nil = a fresh registry).
	Registry *telemetry.Registry

	// RetryAfter is the hint returned with 429 responses (default 2s).
	RetryAfter time.Duration

	// StreamInterval is the SSE progress sampling period (default 200ms).
	StreamInterval time.Duration

	// StreamKeepAlive is how long an SSE stream may stay silent before a
	// comment heartbeat is emitted (default 10s), so client idle watchdogs
	// can tell a slow campaign from a stalled connection.
	StreamKeepAlive time.Duration

	// RequestTimeout bounds every non-streaming request handler (default
	// 30s); only the SSE stream and the debug/metrics mux are exempt. A
	// handler that overruns answers 503.
	RequestTimeout time.Duration

	// MaxBodyBytes bounds submission bodies (default 1 MiB).
	MaxBodyBytes int64

	// Executor runs jobs somewhere other than this process (nil = run
	// them here, on the zoo-backed campaign engine); the fleet coordinator
	// is the one such executor. The job table, journal, cache, deadlines
	// and SSE stay this server's either way.
	Executor Executor
}

// Executor is the seam between the job server and where its campaigns
// run. It covers exactly what differs from local execution.
type Executor interface {
	// Check vets a decoded spec at submit time (an error answers 400) and
	// returns the effective worker count the job's cache hash uses.
	Check(spec *JobSpec) (workers int, err error)

	// Execute runs one job to its report at the worker count Check
	// returned when the job was submitted (journaled with the job, so a
	// replayed job keeps the geometry its cache hash records), reporting
	// cumulative progress. degraded marks a report produced on reduced
	// capacity; it sets JobStatus.Degraded and the X-Fleet-Degraded header
	// on /report.
	Execute(ctx context.Context, spec *JobSpec, workers int, progress func(done, total int)) (rep *goldeneye.CampaignReport, degraded bool, err error)

	// Unready explains why the executor cannot take work ("" = ready);
	// a reason turns /readyz to 503.
	Unready() string

	// WriteMetrics writes the executor's exposition; /metrics merges it
	// with the server's own, family by family.
	WriteMetrics(ctx context.Context, w io.Writer)
}

func (o *Options) withDefaults() {
	if o.QueueSize <= 0 {
		o.QueueSize = 16
	}
	if o.Jobs <= 0 {
		o.Jobs = 1
	}
	if o.CampaignWorkers <= 0 {
		o.CampaignWorkers = 1
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 2 * time.Second
	}
	if o.StreamInterval <= 0 {
		o.StreamInterval = 200 * time.Millisecond
	}
	if o.StreamKeepAlive <= 0 {
		o.StreamKeepAlive = 10 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
}

// Server is the campaign service: an http.Handler exposing the job API,
// with a bounded queue drained by a fixed worker pool.
//
//	POST /v1/jobs             submit a JobSpec → JobStatus (202, or 200 on cache hit)
//	GET  /v1/jobs             list job statuses
//	GET  /v1/jobs/{id}        one job's status
//	GET  /v1/jobs/{id}/report the completed CampaignReport
//	GET  /v1/jobs/{id}/events SSE progress stream until terminal
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	GET  /healthz             liveness + drain state
//	GET  /readyz              readiness: 503 once draining, the journal is unwritable, or the executor is unready
//	GET  /metrics             Prometheus exposition (internal/telemetry), merged with the executor's
//	GET  /metrics.json        JSON exposition
//	GET  /debug/pprof/        pprof handlers
//
// The daemon keeps the most recent maxFinishedJobs finished jobs. A status,
// report, events or cancel request for an older job answers 404, and a
// retried submission with its Idempotency-Key is a new job, served from the
// result cache or recomputed with identical bytes.
type Server struct {
	opts    Options
	reg     *telemetry.Registry
	cache   *resultCache
	journal *journal.Journal // nil = no write-ahead journal
	mux     *http.ServeMux

	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	finished []string          // finished job IDs, oldest first
	idem     map[string]string // Idempotency-Key → job ID
	draining bool
	closed   bool

	wg  sync.WaitGroup
	seq atomic.Int64

	queueDepth      *telemetry.Gauge
	inflight        *telemetry.Gauge
	submissions     *telemetry.Counter
	rejected        *telemetry.Counter
	cacheHits       *telemetry.Counter
	cacheMisses     *telemetry.Counter
	hitRatio        *telemetry.Gauge
	cacheErrors     *telemetry.Counter
	journalRecords  *telemetry.Counter
	journalErrors   *telemetry.Counter
	idemHits        *telemetry.Counter
	sseResumes      *telemetry.Counter
	deadlineExpired *telemetry.Counter

	// beforeRun, when non-nil, runs on the worker goroutine after a job
	// turns running and before the campaign executes. Test seam: lets the
	// queue-full and cancellation tests hold a worker at a known point.
	beforeRun func(*job)
}

// New builds a campaign service and starts its worker pool. Callers serve
// it with net/http and stop it with Shutdown. With a JournalDir, New
// replays the write-ahead journal before accepting traffic: interrupted
// jobs re-enter the queue (in submission order, ahead of new work) and
// terminal ones are restored to the job table, so clients resume streams
// and retry submissions against the same job IDs they held before the
// crash.
func New(opts Options) (*Server, error) {
	opts.withDefaults()
	cache, err := newResultCache(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	var jl *journal.Journal
	var entries []*journal.Entry
	var skipped int
	if opts.JournalDir != "" {
		if jl, err = journal.Open(opts.JournalDir); err != nil {
			return nil, err
		}
		if entries, skipped, err = jl.Replay(); err != nil {
			return nil, err
		}
	}
	s := &Server{
		opts:    opts,
		reg:     opts.Registry,
		cache:   cache,
		journal: jl,
		jobs:    make(map[string]*job),
		idem:    make(map[string]string),

		queueDepth:      opts.Registry.Gauge(MetricQueueDepth),
		inflight:        opts.Registry.Gauge(MetricJobsInFlight),
		submissions:     opts.Registry.Counter(MetricSubmissions),
		rejected:        opts.Registry.Counter(MetricRejected),
		cacheHits:       opts.Registry.Counter(MetricCacheHits),
		cacheMisses:     opts.Registry.Counter(MetricCacheMisses),
		hitRatio:        opts.Registry.Gauge(MetricCacheHitRatio),
		cacheErrors:     opts.Registry.Counter(MetricCacheErrors),
		journalRecords:  opts.Registry.Counter(MetricJournalRecords),
		journalErrors:   opts.Registry.Counter(MetricJournalErrors),
		idemHits:        opts.Registry.Counter(MetricIdempotentHits),
		sseResumes:      opts.Registry.Counter(MetricSSEResumes),
		deadlineExpired: opts.Registry.Counter(MetricDeadlineExpired),
	}
	requeue := s.restoreJournal(entries, skipped)
	// The queue must hold every replayed job on top of the configured
	// bound, or a crash with a full queue could not re-admit its own work.
	s.queue = make(chan *job, opts.QueueSize+len(requeue))
	for _, j := range requeue {
		s.queue <- j
	}
	s.queueDepth.Set(float64(len(s.queue)))

	s.mux = http.NewServeMux()
	timed := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(h, opts.RequestTimeout, `{"error":"server: request timed out"}`)
	}
	s.mux.Handle("POST /v1/jobs", timed(s.handleSubmit))
	s.mux.Handle("GET /v1/jobs", timed(s.handleList))
	s.mux.Handle("GET /v1/jobs/{id}", timed(s.handleStatus))
	s.mux.Handle("GET /v1/jobs/{id}/report", timed(s.handleReport))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents) // SSE: no per-request timeout
	s.mux.Handle("POST /v1/jobs/{id}/cancel", timed(s.handleCancel))
	s.mux.Handle("GET /healthz", timed(s.handleHealthz))
	s.mux.Handle("GET /readyz", timed(s.handleReadyz))
	tm := telemetry.Mux(s.reg)
	metrics := http.Handler(tm)
	if ex := opts.Executor; ex != nil {
		// The executor's exposition may repeat this server's families (a
		// fleet node's goldeneye_server_*), so regroup the two by family.
		metrics = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var buf bytes.Buffer
			s.reg.WritePrometheus(&buf)
			ex.WriteMetrics(r.Context(), &buf)
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			telemetry.MergeExposition(w, buf.Bytes())
		})
	}
	s.mux.Handle("/metrics", metrics)
	s.mux.Handle("/metrics.json", tm)
	s.mux.Handle("/debug/pprof/", tm)

	s.wg.Add(opts.Jobs)
	for i := 0; i < opts.Jobs; i++ {
		go s.worker()
	}
	return s, nil
}

// restoreJournal rebuilds the job table from replayed journal entries and
// returns the jobs that must re-enter the queue (interrupted queued or
// running jobs, and done jobs whose report no longer exists in the result
// cache — re-executing those is bit-identical by the determinism
// invariant). Runs before the worker pool starts, so it owns all state.
func (s *Server) restoreJournal(entries []*journal.Entry, skipped int) []*job {
	replayed := func(outcome string) {
		s.reg.Counter(telemetry.Label(MetricJournalReplayed, "outcome", outcome)).Inc()
	}
	for i := 0; i < skipped; i++ {
		replayed("skipped")
	}
	var requeue []*job
	var maxSeq int64
	for _, e := range entries {
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
		spec, err := DecodeJobSpec(bytes.NewReader(e.Spec))
		if err != nil {
			// A spec this daemon version no longer accepts (schema drift);
			// skip it rather than refusing to boot.
			replayed("skipped")
			s.journalErrors.Inc()
			continue
		}
		j := newJob(e.ID, e.Key, e.Hash, spec, e.Workers)
		j.seqNum = e.Seq
		j.idemKey = e.IdempotencyKey
		j.specJSON = e.Spec
		restored := true
		switch {
		case e.State == journal.StateDone:
			if rep := s.cache.get(e.Key, e.Hash); rep != nil {
				j.cached = true
				j.cfg = rep.Config
				j.finish(JobDone, rep, nil, nil)
			} else {
				restored = false
			}
		case e.State == journal.StateFailed:
			j.finish(JobFailed, nil, fmt.Errorf("server: journaled failure: %s", e.Error), nil)
		case e.State == journal.StateCancelled:
			j.finish(JobCancelled, nil, errors.New("server: job cancelled before restart"), nil)
		default: // queued or running: the crash interrupted it
			restored = false
		}
		if restored {
			s.finished = append(s.finished, j.id)
			replayed("restored")
		} else {
			requeue = append(requeue, j)
			replayed("requeued")
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.idemKey != "" {
			s.idem[j.idemKey] = j.id
		}
	}
	// A journal written past the bound (by a daemon that crashed between
	// evicting a job and removing its entry) is brought back under it.
	s.forget(s.evictLocked())
	// New submissions continue the journal's sequence so IDs never collide
	// with replayed ones.
	s.seq.Store(maxSeq)
	// Re-record requeued jobs as queued: a second crash before they run
	// must replay them the same way.
	for _, j := range requeue {
		s.journalRecord(j, journal.StateQueued, "")
	}
	return requeue
}

// journalEvicted is the rank of an evicted job's journal entry: past every
// state's, so no write follows its removal.
const journalEvicted = 4

// journalRank orders lifecycle states so a job's journal entry can only
// move forward: a submit path's "queued" write that loses the race against
// the worker's "running" (or a fast job's terminal) write is dropped.
func journalRank(state journal.State) int {
	switch state {
	case journal.StateQueued:
		return 1
	case journal.StateRunning:
		return 2
	default: // terminal
		return 3
	}
}

// journalRecord persists a job transition to the write-ahead journal.
// Failures are counted and surfaced through /readyz rather than failing
// the job: the daemon stays available, degraded to non-durable, and
// operators see it immediately.
func (s *Server) journalRecord(j *job, state journal.State, errText string) {
	if s.journal == nil {
		return
	}
	j.jmu.Lock()
	defer j.jmu.Unlock()
	rank := journalRank(state)
	if rank <= j.journaled {
		return
	}
	j.journaled = rank
	err := s.journal.Record(&journal.Entry{
		ID:             j.id,
		Seq:            j.seqNum,
		IdempotencyKey: j.idemKey,
		Key:            j.key,
		Hash:           j.hash,
		Workers:        j.workers,
		Spec:           j.specJSON,
		State:          state,
		Error:          errText,
	})
	if err != nil {
		s.journalErrors.Inc()
		return
	}
	s.journalRecords.Inc()
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: no new submissions are accepted, still-
// queued jobs are cancelled, and running jobs are allowed to complete (and
// their results cached) before it returns. If ctx expires first, running
// jobs are cancelled through the campaign engine's context machinery and
// Shutdown returns ctx.Err after they unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.closed = true
	// Submissions send on the queue only while holding mu with draining
	// false, so closing here cannot race a send.
	close(s.queue)
	queued := make([]*job, 0)
	for _, id := range s.order {
		queued = append(queued, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range queued {
		s.cancelIfQueued(j)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queueDepth.Set(float64(len(s.queue)))
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	reg, ok := j.setRunning()
	if !ok {
		return // cancelled while queued
	}
	s.journalRecord(j, journal.StateRunning, "")
	s.inflight.Add(1)
	if f := s.beforeRun; f != nil {
		f(j)
	}
	// The per-job deadline starts here, when a worker picks the job up —
	// queue time doesn't count against it.
	ctx, cancel := j.ctx, context.CancelFunc(func() {})
	if d := j.spec.Deadline(); d > 0 {
		ctx, cancel = context.WithTimeout(j.ctx, d)
	}
	rep, err := s.execute(ctx, j, reg)
	cancel()
	s.inflight.Add(-1)
	if rep != nil {
		// Strip the report before the cache or a reader can share it.
		rep.Config = released(rep.Config)
	}
	switch {
	case err == nil:
		// Admit the report to the cache before the terminal transition
		// wakes waiters and journals done: a client that sees the job done
		// and resubmits must hit, and a journaled done finds its report.
		s.mu.Lock()
		perr := s.cache.put(j.key, j.hash, rep)
		s.mu.Unlock()
		if perr != nil {
			s.cacheErrors.Inc()
		}
		s.finishJob(j, JobDone, rep, nil)
	case j.ctx.Err() != nil:
		s.finishJob(j, JobCancelled, rep, err)
	case ctx.Err() != nil && rep != nil:
		// The job deadline expired mid-campaign: degrade to the partial
		// report (Interrupted set) instead of a hung worker. Partial
		// reports are never cached — a resubmission re-runs the campaign.
		s.deadlineExpired.Inc()
		s.finishJob(j, JobDone, rep, nil)
	case ctx.Err() != nil:
		s.deadlineExpired.Inc()
		s.finishJob(j, JobFailed, nil,
			fmt.Errorf("server: job %s exceeded its %gs deadline before producing a report: %w",
				j.id, j.spec.DeadlineSeconds, err))
	default:
		s.finishJob(j, JobFailed, nil, err)
	}
}

// execute runs the job under ctx (the job context, possibly narrowed by a
// per-job deadline), feeding reg: on the Executor when one is set,
// otherwise locally after resolving the job's model and pool. The recover
// mirrors the campaign engine's own panic isolation one level up: a
// panicking model resolution or setup fails the job, never the daemon.
func (s *Server) execute(ctx context.Context, j *job, reg *telemetry.Registry) (rep *goldeneye.CampaignReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("server: job %s panicked: %v", j.id, r)
		}
	}()
	if ex := s.opts.Executor; ex != nil {
		var degraded bool
		rep, degraded, err = ex.Execute(ctx, j.spec, j.workers, j.progressed)
		j.remoteDone(reg, rep, degraded)
		return rep, err
	}

	dir := s.opts.ZooDir
	if dir == "" {
		dir = zoo.DefaultDir()
	}
	model, ds, err := zoo.PretrainedIn(dir, j.spec.Model)
	if err != nil {
		return nil, err
	}
	n := min(j.spec.PoolSamples(), ds.ValLen())
	// The spec is validated against its requested pool size, but the
	// dataset may be smaller; clamp the batch to the realized pool.
	pool, err := goldeneye.NewEvalPool(ds.ValX.Slice(0, n), ds.ValY[:n], min(j.spec.EvalBatch, n))
	if err != nil {
		return nil, err
	}
	scout, err := goldeneye.NewSimulator(model, ds.ValX.Slice(0, 1))
	if err != nil {
		return nil, err
	}

	cfg := j.cfg
	cfg.Pool = pool
	cfg.Metrics = reg
	cfg.Progress = func(done, total int) { j.progressed(done, total) }
	if cfg.Layer < 0 {
		cfg.Layer = scout.DefaultInjectionLayer(cfg.Target)
		if cfg.Layer < 0 {
			return nil, &goldeneye.ConfigError{Field: "Campaign.Layer",
				Reason: fmt.Sprintf("model %s has no injectable layers for target %v", j.spec.Model, cfg.Target)}
		}
	}
	j.setResolved(cfg, detect.Names(cfg.Detectors))

	// The scout simulator doubles as the first campaign worker's; extra
	// workers rebuild from the zoo's gob cache, matching how local callers
	// use RunCampaignParallel.
	var first atomic.Pointer[goldeneye.Simulator]
	first.Store(scout)
	build := func() (*goldeneye.Simulator, error) {
		if sim := first.Swap(nil); sim != nil {
			return sim, nil
		}
		m, berr := zoo.PretrainedOn(dir, j.spec.Model, ds)
		if berr != nil {
			return nil, berr
		}
		return goldeneye.NewSimulator(m, ds.ValX.Slice(0, 1))
	}
	return goldeneye.RunCampaignParallel(ctx, cfg, j.workers, build)
}

// finishJob applies a terminal transition, counts it once, and journals
// it. Under the same lock the job joins the finished list, evicting the
// oldest past maxFinishedJobs, so a client that saw the job end sees the
// table without them.
func (s *Server) finishJob(j *job, state JobState, rep *goldeneye.CampaignReport, err error) {
	s.mu.Lock()
	ok := j.finish(state, rep, err, s.reg.Counter(telemetry.Label(MetricJobsTotal, "state", string(state))))
	var evicted []*job
	if ok {
		s.finished = append(s.finished, j.id)
		evicted = s.evictLocked()
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	s.forget(evicted)
	var errText string
	if err != nil {
		errText = err.Error()
	}
	s.journalRecord(j, journal.State(state), errText)
}

// evictLocked drops the oldest finished jobs past maxFinishedJobs from the
// job table, the submission order and the idempotency index, and returns
// them. Callers hold mu (or own the server, at boot).
func (s *Server) evictLocked() []*job {
	n := len(s.finished) - maxFinishedJobs
	if n <= 0 {
		return nil
	}
	evicted := make([]*job, n)
	for i, id := range s.finished[:n] {
		j := s.jobs[id]
		if j.idemKey != "" && s.idem[j.idemKey] == id {
			delete(s.idem, j.idemKey)
		}
		delete(s.jobs, id)
		evicted[i] = j
	}
	s.finished = slices.Delete(s.finished, 0, n)
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return s.jobs[id] == nil })
	return evicted
}

// forget removes evicted jobs' journal entries, so a restarted daemon
// restores the same table, and blocks their later journal writes (a
// terminal record still in flight) from bringing an entry back.
func (s *Server) forget(evicted []*job) {
	if s.journal == nil {
		return
	}
	for _, j := range evicted {
		j.jmu.Lock()
		j.journaled = journalEvicted
		if err := s.journal.Remove(j.id); err != nil {
			s.journalErrors.Inc()
		}
		j.jmu.Unlock()
	}
}

// cancelIfQueued terminates a still-queued job immediately (so waiters see
// the terminal state without waiting for a worker) and cancels the job
// context either way; a running job unwinds through the campaign engine.
func (s *Server) cancelIfQueued(j *job) {
	j.mu.Lock()
	queued := j.state == JobQueued
	j.mu.Unlock()
	if queued {
		s.finishJob(j, JobCancelled, nil, errors.New("server: job cancelled while queued"))
	}
	j.cancel()
}

// jobHash fingerprints everything that determines a job's bit-exact
// report: the model, pool geometry, parallel worker count (Welford merge
// order depends on it), and the campaign cell fingerprint shared with the
// experiment sweeps.
func jobHash(spec *JobSpec, workers int) uint64 {
	return checkpoint.HashConfig(
		spec.Model, spec.PoolSamples(), spec.EvalBatch, workers,
		exper.CellHash(spec.Campaign),
	)
}

func (s *Server) nextID() (string, int64) {
	n := s.seq.Add(1)
	return fmt.Sprintf("job-%06d", n), n
}

// newSubmission constructs a job for an accepted submission, carrying the
// journal bookkeeping (sequence, idempotency key, canonical spec bytes).
func (s *Server) newSubmission(key string, hash uint64, spec *JobSpec, workers int, idemKey string) *job {
	id, seq := s.nextID()
	j := newJob(id, key, hash, spec, workers)
	j.seqNum = seq
	j.idemKey = idemKey
	j.specJSON, _ = json.Marshal(spec)
	return j
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	spec, err := DecodeJobSpec(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	workers := spec.Workers
	switch {
	case s.opts.Executor != nil:
		if workers, err = s.opts.Executor.Check(spec); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	case spec.Campaign.ShardCount > 1:
		// Shard jobs always run serially, whatever the daemon's default
		// worker count: the shard is one stride slice of a campaign whose
		// parallelism lives in the fleet, and its merge contract
		// (MergeShardReports) requires the serial per-shard report.
		workers = 1
	case workers == 0:
		workers = s.opts.CampaignWorkers
	}
	s.submissions.Inc()
	hash := jobHash(spec, workers)
	key := fmt.Sprintf("%s/%016x", spec.Model, hash)
	idemKey := r.Header.Get("Idempotency-Key")

	s.mu.Lock()
	// Idempotent retry: a key we've already accepted maps to its original
	// job, whatever state it is in — the retried submit never double-runs
	// the campaign. The key index survives restarts through the journal.
	if idemKey != "" {
		if id, ok := s.idem[idemKey]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			s.idemHits.Inc()
			w.Header().Set("Idempotency-Replayed", "true")
			writeJSON(w, http.StatusOK, j.snapshot())
			return
		}
	}
	if rep := s.cache.get(key, hash); rep != nil {
		s.cacheHits.Inc()
		s.updateHitRatio()
		j := s.newSubmission(key, hash, spec, workers, idemKey)
		j.cached = true
		j.cfg = rep.Config
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if idemKey != "" {
			s.idem[idemKey] = j.id
		}
		s.mu.Unlock()
		s.finishJob(j, JobDone, rep, nil)
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	s.cacheMisses.Inc()
	s.updateHitRatio()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, errors.New("server: draining, not accepting jobs"))
		return
	}
	j := s.newSubmission(key, hash, spec, workers, idemKey)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if idemKey != "" {
			s.idem[idemKey] = j.id
		}
		s.queueDepth.Set(float64(len(s.queue)))
		s.mu.Unlock()
		// Journal the acceptance before acknowledging it, so a crash after
		// the 202 always replays the job.
		s.journalRecord(j, journal.StateQueued, "")
		writeJSON(w, http.StatusAccepted, j.snapshot())
	default:
		s.rejected.Inc()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.RetryAfter/time.Second)))
		httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("server: job queue full (%d waiting)", s.opts.QueueSize))
	}
}

// updateHitRatio refreshes the cache hit-ratio gauge; callers hold mu.
func (s *Server) updateHitRatio() {
	hits, misses := s.cacheHits.Value(), s.cacheMisses.Value()
	if total := hits + misses; total > 0 {
		s.hitRatio.Set(float64(hits) / float64(total))
	}
}

// jobFor resolves the {id} path value, answering 404 itself on a miss.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("server: unknown job %q", id))
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.order))
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		statuses = append(statuses, j.snapshot())
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	st := j.snapshot()
	if st.State != JobDone {
		httpError(w, http.StatusConflict,
			fmt.Errorf("server: job %s has no report (state=%s)", j.id, st.State))
		return
	}
	// The body stays the report alone, byte-identical to a local run's, so
	// a degraded executor run is flagged in a header.
	if st.Degraded {
		w.Header().Set("X-Fleet-Degraded", "true")
	}
	rep, _ := j.result()
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	s.cancelIfQueued(j)
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleReadyz is the drain-aware readiness probe, distinct from the
// liveness /healthz: it answers 503 once Shutdown begins (load balancers
// stop routing new jobs while in-flight ones drain), when the write-ahead
// journal has become unwritable (accepting work that cannot be made durable
// would silently void the crash-safety contract), or while the executor
// gives a reason it cannot take work.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	var journalErr error
	if s.journal != nil {
		journalErr = s.journal.Healthy()
	}
	reason := ""
	switch {
	case draining:
		reason = "draining"
	case journalErr != nil:
		reason = "journal unwritable: " + journalErr.Error()
	case s.opts.Executor != nil:
		reason = s.opts.Executor.Unready()
	}
	if reason != "" {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "unavailable", "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	njobs := len(s.jobs)
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":        status,
		"jobs":          njobs,
		"queue_depth":   len(s.queue),
		"jobs_inflight": int(s.inflight.Value()),
	})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
