package goldeneye

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/metrics"
	"goldeneye/internal/nn"
	"goldeneye/internal/sampling"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/tensor"
	"goldeneye/internal/train"
)

// The campaign engine. Every way of running a campaign — serial, batched,
// parallel, one shard of a fleet, sampled, sequentially stopped, resumed —
// is one run of K workers (K = 1 for RunCampaign and for a shard):
//
//   - calibrate: the campaign's one calibration (clean references, sealed
//     detectors, cut table, sampled selection) takes its clean state from
//     the process-wide calibration cache when the campaign's key is there
//     (calibration_cache.go); otherwise the workers build it together: the
//     first worker ready lays it out, every worker claims slices of each
//     setup sweep from a shared counter and runs them on its own model,
//     and the slices' calibration passes fold in pool order, so the
//     calibration is bit-identical at any K, and at a hit; every worker
//     then shares it read-only;
//   - plan: worker w owns the injection indices i ≡ w (mod K) (a shard's
//     one worker owns i ≡ ShardIndex (mod ShardCount)); its plan is its
//     owned indices minus a resumed prefix and the ones a sampled
//     selection skips or prunes, in ascending order;
//   - groups: each worker cuts its plan into runner.batch-row groups inside
//     the sequential-stopping review windows, drawing the serial fault
//     sequence lazily and discarding the draws it does not own;
//   - group runner: one batched pass per group (runGroup);
//   - fold: every outcome lands in the worker's report (fold);
//   - merge: one worker's report is the run's report; K workers' reports
//     merge in worker order (mergeReports), exactly as K shard reports do.

// RunCampaign executes the configured campaign and returns its report. The
// model's weights are restored to their pre-campaign values before
// returning. It is the campaign engine at one worker.
//
// Lifecycle semantics:
//   - Batching: with cfg.BatchSize > 1 (or a Pool.Batch geometry), up to
//     BatchSize distinct neuron faults share one batched forward pass,
//     each against its own pool sample under per-sample format metadata. The
//     report — aggregates, Detected/Aborted counts, and trace — is
//     bit-identical to the serial batch-1 path under the same seed.
//   - Cancellation: ctx is checked cooperatively before every injection
//     group; on cancellation the partial report (aggregating exactly the
//     completed groups, Interrupted set; a cancel during setup leaves it
//     empty but for a resumed prefix) is returned together with ctx.Err().
//     The end-of-run telemetry (sampling and detector coverage) is
//     published on every exit.
//   - Panic isolation: an injection whose inference panics is recovered,
//     counted in the report's Aborted field, and the campaign continues in
//     degraded mode until more than cfg.MaxAborts injections abort; the
//     partial report is then returned with the error. A panic inside a
//     batched pass re-runs each row of that group as its own group, so the
//     abort lands on the offending injection only.
//   - Resume: with cfg.Resume, the already-executed fault prefix is drawn
//     but not re-run and the Welford accumulators continue from the
//     persisted state, so the final report is bit-identical to an
//     uninterrupted run's.
func (s *Simulator) RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	return runEngine(ctx, cfg, 1, s, nil)
}

// RunCampaignParallel runs a campaign across worker simulators built by
// build (each must wrap an identical, independently allocated model — e.g.
// a fresh zoo load). Worker w executes the injection indices i ≡ w
// (mod workers) of the serial fault sequence, so the injected faults are
// exactly those of RunCampaign; only floating-point aggregation order
// differs (Welford merge in worker order). Each worker packs its indices
// into cfg.BatchSize-row passes, so throughput scales with both levers.
//
// The lifecycle semantics of RunCampaign apply per worker: cancellation
// stops every worker at its next group boundary and returns the merged
// partial report with ctx.Err(); a panicking injection aborts only that
// injection (the sibling workers continue); and a worker goroutine that
// panics outside an injection surfaces as that worker's error rather than
// crashing the process. The MaxAborts threshold is enforced across all
// workers combined; any worker error returns nil and the error wrapped as
// "campaign worker w/K".
func RunCampaignParallel(ctx context.Context, cfg CampaignConfig, workers int, build func() (*Simulator, error)) (*CampaignReport, error) {
	if workers > 1 && cfg.sharded() {
		// A shard is already one stride slice of the campaign; running it
		// across a worker pool would nest two stride assignments and break
		// the byte-identity contract MergeShardReports depends on. The
		// fleet, not the per-node worker pool, provides the parallelism.
		return nil, configErrf("ShardCount",
			"sharded campaigns run serially (workers=1); got workers=%d for shard %d/%d",
			workers, cfg.ShardIndex, cfg.ShardCount)
	}
	first, err := build()
	if err != nil {
		return nil, err
	}
	return runEngine(ctx, cfg, workers, first, build)
}

// engine is one campaign run's shared state. Workers write only their own
// reports and errs slots; the calibration is laid out once, by the first
// worker to reach setupOnce, filled slice by slice by every worker (each
// slice its own slots), and sealed and planned before any worker injects.
type engine struct {
	cfg     CampaignConfig
	geom    campaignGeom
	ctx     context.Context // cancelled when any worker fails
	workers int
	stride  int   // index ownership stride: workers, or a shard's ShardCount
	skip    int   // resumed prefix length
	bounds  []int // sequential-stopping review windows (see stopBounds)
	barrier *ciBarrier

	setupOnce sync.Once
	planOnce  sync.Once
	cal       *calibration  // the campaign's calibration (see setup)
	phases    []*setupPhase // cal's setup phases, run in order
	planned   int           // progress total: resumed prefix plus every worker's plan
	ct        *campaignTelemetry

	// calErr is the setup's first failure; cal is unusable once it is set.
	calErr atomic.Pointer[error]

	done    atomic.Int64 // executed injections, for Progress
	aborted atomic.Int64 // panicked injections, for MaxAborts

	reports []*CampaignReport
	errs    []error
}

// runEngine runs cfg on workers workers: worker 0 on first, the others on
// simulators from build. Configuration errors return before any worker
// starts; the workers then prepare their runners concurrently, and the
// first one ready calibrates the campaign for all of them.
func runEngine(ctx context.Context, cfg CampaignConfig, workers int, first *Simulator, build func() (*Simulator, error)) (*CampaignReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// An inert sampling plan is indistinguishable from no plan; normalize
	// it away so the report — wire bytes included — stays byte-identical to
	// an exhaustive campaign's.
	if !cfg.Sampling.Active() {
		cfg.Sampling = nil
	}
	g, err := first.campaignGeometry(cfg)
	if err != nil {
		return nil, err
	}
	workers = max(min(workers, cfg.Injections), 1)
	wctx, stop := context.WithCancel(ctx)
	defer stop()
	e := &engine{
		cfg: cfg, geom: g, ctx: wctx, workers: workers, stride: max(workers, cfg.ShardCount),
		bounds:  stopBounds(cfg.Sampling, cfg.Injections),
		reports: make([]*CampaignReport, workers),
		errs:    make([]error, workers),
	}
	if cfg.Resume != nil {
		e.skip = cfg.Resume.Injections + cfg.Resume.Aborted
		// Prior aborts count toward the threshold.
		e.aborted.Store(int64(cfg.Resume.Aborted))
	}
	e.done.Store(int64(e.skip))
	for w := range e.reports {
		e.reports[w] = &CampaignReport{}
	}
	if workers == 1 {
		// One worker continues the resumed accumulators in place, so its
		// moments carry no merge reassociation.
		e.reports[0] = resumedReport(cfg)
	}
	if cfg.Sampling != nil && cfg.Sampling.TargetCI > 0 {
		e.barrier = newCIBarrier(workers, e.review)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sim := first
		if w > 0 {
			sim = nil
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.work(w, sim, build, stop)
		}(w)
	}
	wg.Wait()
	return e.finish(ctx)
}

// resumedReport returns cfg's empty report, seeded with the aggregates of
// cfg.Resume's executed prefix when resuming. Only the aggregates carry
// over; the partial report's Interrupted flag, trace, sampling estimator
// and config belong to the interrupted run.
func resumedReport(cfg CampaignConfig) *CampaignReport {
	rep := &CampaignReport{Config: cfg}
	if res := cfg.Resume; res != nil {
		rep.CampaignResult = res.CampaignResult
		rep.Detected, rep.Aborted, rep.Recovered = res.Detected, res.Aborted, res.Recovered
		rep.PerDetector = mergeResumeDetectors(nil, res.PerDetector)
	}
	return rep
}

// first returns worker w's first owned injection index past the resumed
// prefix. Worker w owns i ≡ w (mod K) — for a shard's one worker,
// i ≡ ShardIndex (mod ShardCount) — and walks its indices in stride steps.
func (e *engine) first(w int) int {
	i := w + e.cfg.ShardIndex
	if i < e.skip {
		i += (e.skip - i + e.stride - 1) / e.stride * e.stride
	}
	return i
}

// setup is a worker's share of the campaign's calibration, run on its
// runner r. The first worker ready lays the calibration out on its model,
// or adopts a cached clean state, which leaves no setup phase to run;
// every worker then joins each setup phase in turn, however late it
// arrives, and the first one past the last phase plans the run. It returns
// the setup's first failure — an error, a cancellation or a panic in any
// worker's slice — which every worker sees.
func (e *engine) setup(r *campaignRunner) error {
	e.setupOnce.Do(func() {
		e.guard(func() error {
			cal, phases, err := r.newCalibration(e.cfg, e.geom)
			e.cal, e.phases = cal, phases
			return err
		})
	})
	r.calibration = e.cal
	for _, p := range e.phases {
		e.join(p, r)
	}
	e.planOnce.Do(func() {
		if e.setupErr() == nil {
			e.guard(e.plan)
		}
	})
	return e.setupErr()
}

// join runs slices of phase p on runner r until p's queue is empty, then
// waits for the slices other workers still run. The worker completing the
// last slice folds and seals the phase. After a failure the remaining
// slices are claimed but skipped, so the phase still completes and no
// worker waits for ever.
func (e *engine) join(p *setupPhase, r *campaignRunner) {
	for i := p.claim(); i < len(p.slices); i = p.claim() {
		if e.setupErr() == nil {
			e.guard(func() error { return p.run(e.ctx, r, i) })
		}
		if p.left.Add(-1) == 0 {
			if e.setupErr() == nil {
				e.guard(p.complete)
			}
			close(p.done)
		}
	}
	<-p.done
}

// guard runs one step of the campaign's setup, recording its error, or its
// panic, as the setup's failure.
func (e *engine) guard(step func() error) {
	defer func() {
		if p := recover(); p != nil {
			e.failSetup(fmt.Errorf("campaign calibration panicked: %v", p))
		}
	}()
	e.failSetup(step())
}

// failSetup records err (when non-nil) unless an earlier failure is
// recorded already.
func (e *engine) failSetup(err error) {
	if err != nil {
		e.calErr.CompareAndSwap(nil, &err)
	}
}

func (e *engine) setupErr() error {
	if err := e.calErr.Load(); err != nil {
		return *err
	}
	return nil
}

// plan, the setup's last step, prepares the run's index plan from the
// sealed calibration's selection: worker w's plan is its owned indices
// from first(w) on that the selection executes, in ascending order.
func (e *engine) plan() error {
	cal := e.cal
	cal.sel = cal.buildSelection()
	e.planned = e.skip
	for w := 0; w < e.workers; w++ {
		for i := e.first(w); i < e.cfg.Injections; i += e.stride {
			if cal.sel.executed(i) {
				e.planned++
			}
		}
	}
	e.ct = newCampaignTelemetry(e.cfg.Metrics, e.planned, detect.Names(e.cfg.Detectors))
	if e.cfg.Progress != nil && e.skip > 0 {
		e.cfg.Progress(e.skip, e.planned)
	}
	return nil
}

// work is worker w's share of the run: build its simulator (unless given
// one), prepare its runner, run its share of the campaign's setup, and run
// its plan. Failures land in errs[w] and stop the sibling workers at their
// next group boundary.
func (e *engine) work(w int, sim *Simulator, build func() (*Simulator, error), stop context.CancelFunc) {
	rep := e.reports[w]
	fail := func(err error) {
		e.errs[w] = err
		stop()
	}
	// Exactly once per worker, on every exit path, so workers parked on a
	// review round never wait for a departed sibling.
	if e.barrier != nil {
		defer e.barrier.leave()
	}
	// Last line of defense: a panic outside the per-injection isolation
	// (runner setup, telemetry) becomes the worker's error instead of
	// crashing the process.
	defer func() {
		if p := recover(); p != nil {
			fail(fmt.Errorf("worker panicked outside an injection: %v", p))
		}
	}()
	var work *telemetry.Counter
	if reg := e.cfg.Metrics; reg != nil {
		// Per-worker wall time and executed injections, for spotting
		// stragglers in the metrics dump.
		id := strconv.Itoa(w)
		wall := reg.Gauge(telemetry.Label(MetricCampaignShardTime, "worker", id))
		defer func(start time.Time) { wall.Set(time.Since(start).Seconds()) }(time.Now())
		work = reg.Counter(telemetry.Label(MetricCampaignShardWork, "worker", id))
	}
	if sim == nil {
		var err error
		if sim, err = build(); err != nil {
			fail(err)
			return
		}
	}
	r := sim.newRunner(e.cfg)
	defer r.close()
	if err := e.setup(r); err != nil {
		if e.ctx.Err() != nil && errors.Is(err, e.ctx.Err()) {
			rep.Interrupted = true
			return
		}
		fail(err)
		return
	}
	r.use(e.cal)
	rep.PerDetector = mergeResumeDetectors(r.detectorBaseline(), rep.PerDetector)
	if r.sel != nil {
		// The worker's whole share of the fault space is accounted up
		// front (dispatch is analytic), so the estimator's population is
		// the full fault space even when a review boundary stops execution
		// early.
		rep.Sampling = r.sel.emptyReport()
		r.sel.account(rep.Sampling, e.first(w), e.cfg.Injections, e.stride)
	}
	if err := e.run(w, r, rep, work); err != nil {
		fail(err)
	}
}

// run executes worker w's plan in runner.batch-row groups, window by
// window, and folds every outcome into rep. Each window ends at the review
// barrier when the campaign stops sequentially.
func (e *engine) run(w int, r *campaignRunner, rep *CampaignReport, work *telemetry.Counter) error {
	sc, n := r.scratch, r.geom.pool.Len()
	drawer := newFaultDrawer(&e.cfg, r.geom)
	i := e.first(w)
	for round, bound := range e.bounds {
		for {
			// The next group: up to batch planned indices of the window.
			idx := sc.idx[:0]
			for ; i < bound && len(idx) < r.batch; i += e.stride {
				if r.sel.executed(i) {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				break
			}
			if e.ctx.Err() != nil {
				rep.Interrupted = true
				return nil
			}
			faultsets, samples := sc.faultsets[:len(idx)], sc.samples[:len(idx)]
			for k, j := range idx {
				faultsets[k] = sc.faultRow(k, r.geom.flips)
				drawer.drawAt(j, faultsets[k])
				samples[k] = j % n
			}
			start := time.Now()
			outs, errs := sc.outs[:len(idx)], sc.errs[:len(idx)]
			r.runGroup(w, idx, faultsets, samples, outs, errs)
			// Latency accounting stays per injection, so the histogram's
			// count matches the injection counters; a batched pass amortizes
			// its wall time evenly over its rows.
			per := time.Since(start) / time.Duration(len(idx))
			if e.cfg.Progress != nil {
				e.cfg.Progress(int(e.done.Add(int64(len(idx)))), e.planned)
			}
			if r.batch > 1 {
				e.ct.recordBatch(len(idx), r.batch)
			}
			for k, j := range idx {
				if err := e.fold(rep, j, outs[k], errs[k], per, work); err != nil {
					return err
				}
			}
		}
		if e.barrier != nil && e.barrier.await(round) > 0 {
			break
		}
	}
	return nil
}

// fold records injection i's outcome (and the group runner's error for
// it) into the worker's report and the campaign telemetry. A non-nil
// return is fatal for the run: an error that is not an *InjectionError, or
// the abort that exceeds MaxAborts.
func (e *engine) fold(rep *CampaignReport, i int, out InjectionOutcome, err error, per time.Duration, work *telemetry.Counter) error {
	var ie *InjectionError
	if err != nil && !errors.As(err, &ie) {
		return err
	}
	if sel := e.cal.sel; sel != nil {
		sel.observe(rep.Sampling, i, out)
		out.Index = i
	}
	if e.cfg.KeepTrace {
		rep.Trace = append(rep.Trace, traceCopy(out))
	}
	switch {
	case ie != nil:
		rep.Aborted++
		e.ct.recordAborted()
		if total := e.aborted.Add(1); e.cfg.MaxAborts > 0 && total > int64(e.cfg.MaxAborts) {
			return fmt.Errorf("%d aborted injections exceed MaxAborts=%d: %w", total, e.cfg.MaxAborts, ie)
		}
	case out.Aborted:
		// A RecoverAbort detection discarded this inference: counted in
		// Aborted (and the detector breakdown) but excluded from the metric
		// aggregates and the MaxAborts threshold.
		rep.Aborted++
		rep.Detected++
		e.ct.recordAborted()
		e.ct.recordDetections(out.DetectedBy, false)
		rep.recordDetections(out)
	default:
		e.ct.record(out.Mismatch, out.NonFinite, out.Detected, per)
		e.ct.recordDetections(out.DetectedBy, out.Recovered)
		if work != nil {
			work.Inc()
		}
		rep.Record(out.Mismatch, out.DeltaLoss, out.NonFinite)
		if out.Detected {
			rep.Detected++
		}
		if out.Recovered {
			rep.Recovered++
		}
		rep.recordDetections(out)
	}
	return nil
}

// review is the sequential-stopping check the review barrier runs once per
// round, while every live worker is parked: it merges all workers'
// estimator state and returns the round's boundary when the confidence
// interval is tight enough, else 0.
func (e *engine) review(round int) int {
	bound := e.bounds[round]
	if bound >= e.cfg.Injections {
		return 0 // final boundary: nothing left to stop early
	}
	reviewed := e.cal.sel.emptyReport()
	for _, rep := range e.reports {
		// Same strata by construction; Merge cannot fail.
		_ = reviewed.Merge(rep.Sampling)
	}
	if reviewed.CIHalfWidth() <= e.cfg.Sampling.TargetCI {
		return bound
	}
	return 0
}

// finish is the run's single exit: it assembles the report — the one
// worker's own, or every worker's merged over the resume state — publishes
// the end-of-run telemetry, and returns it with the run's error.
func (e *engine) finish(ctx context.Context) (*CampaignReport, error) {
	rep := e.reports[0]
	if e.workers > 1 {
		rep = resumedReport(e.cfg)
		_ = mergeReports(rep, e.reports) // same strata by construction
	}
	if e.barrier != nil && rep.Sampling != nil {
		rep.Sampling.StopIndex = e.barrier.stopIndex()
	}
	e.ct.publishSampling(rep.Sampling)
	e.ct.publishCoverage(rep)
	for w, err := range e.errs {
		var ie *InjectionError
		switch {
		case err == nil:
		case e.workers > 1:
			return nil, fmt.Errorf("goldeneye: campaign worker %d/%d: %w", w, e.workers, err)
		case errors.As(err, &ie):
			return rep, fmt.Errorf("goldeneye: %w", err) // MaxAborts: keep the partial report
		default:
			return nil, err
		}
	}
	if rep.Interrupted {
		return rep, ctx.Err()
	}
	return rep, nil
}

// mergeReports folds worker or shard reports, given in worker (shard)
// index order, into merged, which carries the campaign's config and any
// resumed prefix. The Welford moments merge in that order; the detector
// breakdown takes the deterministic, worker-invariant false-positive
// baseline from the first part carrying one and sums detections across
// all; exhaustive traces interleave back into injection order, and sampled
// traces reassemble by their global Index.
func mergeReports(merged *CampaignReport, parts []*CampaignReport) error {
	k, cfg := len(parts), merged.Config
	for _, p := range parts {
		if p.Sampling != nil {
			merged.Sampling = &sampling.Report{Strata: make([]sampling.Stratum, len(p.Sampling.Strata))}
			for i, st := range p.Sampling.Strata {
				merged.Sampling.Strata[i].Name = st.Name
			}
			break
		}
	}
	sampled := merged.Sampling != nil
	if cfg.KeepTrace && !sampled {
		merged.Trace = make([]InjectionOutcome, cfg.Injections)
	}
	baseline := false
	for s, p := range parts {
		merged.Interrupted = merged.Interrupted || p.Interrupted
		merged.CampaignResult.Merge(p.CampaignResult)
		merged.Detected += p.Detected
		merged.Aborted += p.Aborted
		merged.Recovered += p.Recovered
		if !baseline && p.PerDetector != nil {
			merged.PerDetector = mergeResumeDetectors(maps.Clone(p.PerDetector), merged.PerDetector)
			baseline = true
		} else {
			merged.PerDetector = mergeResumeDetectors(merged.PerDetector, p.PerDetector)
		}
		if sampled {
			if err := merged.Sampling.Merge(p.Sampling); err != nil {
				return fmt.Errorf("shard %d: %v", s, err)
			}
		} else if cfg.KeepTrace {
			for j, out := range p.Trace {
				merged.Trace[s+j*k] = out
			}
		}
	}
	if cfg.KeepTrace && sampled {
		// Each part's sparse trace is ascending within its stride sequence;
		// walking the global indices and taking the owning part's next entry
		// when its Index matches restores the serial order.
		cursors := make([]int, k)
		for i := 0; i < cfg.Injections; i++ {
			if c, p := cursors[i%k], parts[i%k]; c < len(p.Trace) && p.Trace[c].Index == i {
				merged.Trace = append(merged.Trace, p.Trace[c])
				cursors[i%k]++
			}
		}
	}
	return nil
}

// runGroup runs one injection group — injection idx[k] applies
// faultsets[k] to pool sample samples[k] — and fills outs and errs
// positionally. A panic anywhere in the group's passes re-runs each sample
// of a larger group as its own group, which reproduces the other samples
// bit-identically and confines the abort to the offending injection; a
// panicking one-sample group becomes an *InjectionError naming worker w.
func (r *campaignRunner) runGroup(w int, idx []int, faultsets [][]inject.Fault, samples []int, outs []InjectionOutcome, errs []error) {
	defer func() {
		p := recover()
		switch {
		case p == nil:
		case len(idx) == 1:
			outs[0] = abortedOutcome(faultsets[0], samples[0])
			errs[0] = &InjectionError{Shard: w, Injection: idx[0], Fault: faultsets[0][0], Panic: p}
		default:
			for k := range idx {
				r.runGroup(w, idx[k:k+1], faultsets[k:k+1], samples[k:k+1], outs[k:k+1], errs[k:k+1])
			}
		}
	}()
	for k := range outs {
		outs[k], errs[k] = InjectionOutcome{}, nil
	}
	// Only weight faults can fail without panicking, and weight-target
	// groups hold one row (see packBatch).
	errs[0] = r.injectGroup(faultsets, samples, outs)
}

// injectGroup runs a group's injected pass and fills outs. The group's
// samples share one pass under per-sample emulation, sample k carrying
// its own faults, so every sample is bit-identical to its one-sample
// pass. Hooks register in one order:
// emulation, the injection at the target layer, the ranger clamp, then the
// detection pipeline — so faults are detected rather than prevented.
// Weight corruption is undone via defer, so a panic inside the pass cannot
// leak corrupted weights into the next group.
func (r *campaignRunner) injectGroup(faultsets [][]inject.Fault, samples []int, outs []InjectionOutcome) error {
	cfg := r.cfg
	rows := len(samples)
	hooks := emulationHooks(cfg.Assignment, rows)
	switch {
	case cfg.Site == inject.SiteAccum:
		// Registered after the emulation accum entries, so the layer's
		// assigned accumulator rounding stays first in the merged spec and
		// the faults corrupt the quantized reduction; row k's faults land on
		// batch row k of the layer's GEMM.
		var afs []nn.AccumFault
		for k, fs := range faultsets {
			afs = append(afs, inject.AccumFaultsFor(r.geom.inj, fs, k)...)
		}
		spec := nn.AccumSpec{Faults: afs}
		hooks.Accum(nn.ByIndex(cfg.Layer), func(nn.LayerInfo) nn.AccumSpec { return spec })
	case cfg.Target == inject.TargetWeight:
		var restores []func()
		// Undo weight corruption in reverse order so overlapping faults
		// restore correctly — deferred, so panic unwinding restores too.
		defer func() {
			for j := len(restores) - 1; j >= 0; j-- {
				restores[j]()
			}
		}()
		for _, fault := range faultsets[0] {
			restore, err := inject.WeightFault(r.geom.inj, fault, r.sim.widx)
			if err != nil {
				return err
			}
			restores = append(restores, restore)
		}
	default:
		hooks.PostForward(nn.ByIndex(cfg.Layer), inject.NeuronHook(r.geom.inj, faultsets))
	}
	var rec *detect.Recorder
	if r.pipeline != nil {
		rec = detect.NewRecorder(rows)
	}
	pass := r.groupPass(samples, func() *tensor.Tensor { return r.scratch.gather(r.geom.pool.X, samples) })
	logits := pass(r.protect(hooks, rec))

	// Re-execution without the transient fault, shared by legacy
	// MeasureDMR, the pipeline's DMR comparator, and RecoverReexecute.
	// Weight corruption is still in place, so it escapes DMR detection and
	// survives re-execution (as the real techniques would). Detections on
	// the clean duplicate are discarded.
	var again *tensor.Tensor
	redo := func() *tensor.Tensor { return pass(r.armedCleanHooks(rows, detect.NewRecorder(rows))) }
	if cfg.MeasureDMR || (r.pipeline != nil && r.pipeline.NeedsRerun()) {
		again = redo()
		if r.pipeline != nil {
			r.pipeline.CompareOutputs(rec, logits, again)
		}
	}
	// RecoverReexecute delivers the clean duplicate's rows for flagged
	// injections; reuse the DMR rerun when one already exists.
	if rec != nil && r.pipeline.Policy() == detect.PolicyReexecute && again == nil && rec.AnyFlagged() {
		again = redo()
	}
	yb := r.scratch.yb[:rows]
	for k, s := range samples {
		yb[k] = r.geom.pool.Y[s]
	}
	preds, losses, nonFinite := logits.ArgMaxRows(), train.CrossEntropyPerSample(logits, yb), logits.NonFiniteRows()
	var redoPreds, redoNonFinite []int
	var redoLosses []float64
	if again != nil {
		redoPreds, redoLosses, redoNonFinite = again.ArgMaxRows(), train.CrossEntropyPerSample(again, yb), again.NonFiniteRows()
	}
	for k := range outs {
		out := InjectionOutcome{Fault: faultsets[k][0], Sample: samples[k], FirstNonFiniteLayer: -1}
		if len(faultsets[k]) > 1 {
			out.Extra = faultsets[k][1:]
		}
		if cfg.MeasureDMR {
			out.Detected = !again.Slice(k, k+1).AllClose(logits.Slice(k, k+1), 0)
		}
		detected := false
		if rec != nil {
			out.DetectedBy = rec.DetectedBy(k)
			out.FirstNonFiniteLayer = rec.FirstNonFiniteLayer(k)
			detected = len(out.DetectedBy) > 0
			out.Detected = out.Detected || detected
		}
		pred, loss, nf := preds[k], losses[k], nonFinite[k] > 0
		if detected {
			switch r.pipeline.Policy() {
			case detect.PolicyAbort:
				out.Aborted = true
				outs[k] = out
				continue
			case detect.PolicyReexecute:
				pred, loss, nf = redoPreds[k], redoLosses[k], redoNonFinite[k] > 0
			}
		}
		out.Mismatch = pred != r.cleanPred[samples[k]]
		out.DeltaLoss = metrics.DeltaLoss(r.cleanLoss[samples[k]], loss)
		out.NonFinite = nf || out.FirstNonFiniteLayer >= 0
		if detected && r.pipeline.Policy() != detect.PolicyNone {
			out.Recovered = !out.Mismatch
		}
		outs[k] = out
	}
	return nil
}
