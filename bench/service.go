package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldeneye"
	"goldeneye/internal/fleet"
	"goldeneye/internal/rng"
	"goldeneye/internal/sampling"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
	"goldeneye/internal/telemetry"
)

// serviceWorkload sends small jobs through a journaling daemon and a
// two-node fleet, so per-job overhead (dataset synthesis, journal, SSE,
// cache lookups, shard dispatch) dominates.
var serviceWorkload = &workload{
	name:      "service",
	models:    []string{"resnet_s"},
	setupReps: 41,
	runner:    func() runner { return &serviceRunner{} },
}

// jobKind is a job's class in the service mix.
type jobKind int

const (
	jobFresh   jobKind = iota // a new campaign on the direct daemon
	jobSampled                // a sampled, pruned campaign on the direct daemon
	jobHit                    // an exact repeat of a warm-up job: a cache hit
	jobFleet                  // a new campaign through the fleet coordinator
)

func (k jobKind) String() string {
	return [...]string{"fresh", "sampled", "hit", "fleet"}[k]
}

// blockMix is one block of the job sequence; every block holds exactly
// this mix (50% fresh, 15% sampled, 20% hits, 15% fleet) in a seed-drawn
// order, so any window of whole blocks runs the same mix.
var blockMix = []jobKind{
	jobFresh, jobFresh, jobFresh, jobFresh, jobFresh, jobFresh, jobFresh, jobFresh, jobFresh, jobFresh,
	jobSampled, jobSampled, jobSampled,
	jobHit, jobHit, jobHit, jobHit,
	jobFleet, jobFleet, jobFleet,
}

// serviceFormats are the fresh jobs' formats; sampled jobs use the two
// that analytic pruning accepts.
var (
	serviceFormats = []string{"fp16", "int8", "bfp_e5m5", "afp_e5m2"}
	sampledFormats = []string{"fp16", "fp8_e4m3"}
)

// serviceSizes are a job's counts: pool samples, batch, injections of a
// fresh job and of a sampled one.
type serviceSizes struct{ samples, batch, fresh, sampled int }

// serviceJob is one job of the sequence.
type serviceJob struct {
	kind jobKind
	spec *server.JobSpec
	warm int // jobHit: index of the warm-up job it repeats
}

// jobResult is one completed (or failed) job of the measured window.
type jobResult struct {
	kind            jobKind
	latency, submit time.Duration
	queueWait, exec time.Duration // traced jobs that showed "running" on SSE
	sawRunning      bool
	wire            []byte
	report          *goldeneye.CampaignReport
	warm            int
	err             error
}

// serviceRunner boots a direct daemon (journal + persistent cache, two
// campaign workers) and a fleet coordinator over two single-worker nodes,
// all in process over loopback HTTP, and drives them with load closed-loop
// clients.
type serviceRunner struct {
	sizes serviceSizes

	dir                 string
	daemons             []*server.Server
	https               []*httptest.Server
	front               *fleet.Server
	serverReg, fleetReg *telemetry.Registry
	clientReg           *telemetry.Registry
	direct, viaFleet    *client.Client

	warmSpecs []*server.JobSpec // one fresh job per format, repeated as hits
	warmWires [][]byte
	fleetSpec *server.JobSpec // the warm-up fleet job, rerun directly by check
	fleetWire []byte

	results  []*jobResult
	counters map[string]float64 // registry counters at the window start
}

func (s *serviceRunner) setup(e *env) error {
	s.sizes = serviceSizes{samples: 64, batch: 16, fresh: 64, sampled: 512}
	if e.o.smoke {
		s.sizes = serviceSizes{samples: 16, batch: 8, fresh: 8, sampled: 32}
	}
	e.digestOps = len(blockMix)
	return e.part("server.boot_s", func() error { return s.boot(e.o.trace == 1) })
}

// boot starts the three daemons and the coordinator and waits until every
// one answers /readyz. Only a traced run hands the benchmark's own
// registries to the daemons, coordinator and clients.
func (s *serviceRunner) boot(traced bool) error {
	dir, err := os.MkdirTemp("", "bench-service-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.serverReg, s.fleetReg, s.clientReg = nil, nil, nil
	if traced {
		s.serverReg, s.fleetReg, s.clientReg = telemetry.NewRegistry(), telemetry.NewRegistry(), telemetry.NewRegistry()
	}
	start := func(opts server.Options) (string, error) {
		d, err := server.New(opts)
		if err != nil {
			return "", err
		}
		ts := httptest.NewServer(d)
		s.daemons = append(s.daemons, d)
		s.https = append(s.https, ts)
		return ts.URL, nil
	}
	directURL, err := start(server.Options{Jobs: 1, CampaignWorkers: load,
		JournalDir: filepath.Join(dir, "journal"), CacheDir: filepath.Join(dir, "cache"), Registry: s.serverReg})
	if err != nil {
		return err
	}
	var nodes []string
	for i := 0; i < 2; i++ {
		u, err := start(server.Options{Jobs: 1, CampaignWorkers: 1})
		if err != nil {
			return err
		}
		nodes = append(nodes, u)
	}
	co, err := fleet.New(nodes, fleet.Options{Shards: 2, Registry: s.fleetReg})
	if err != nil {
		return err
	}
	s.front = fleet.Serve(co, fleet.ServerOptions{})
	fts := httptest.NewServer(s.front)
	s.https = append(s.https, fts)

	opts := client.Options{Registry: s.clientReg}
	s.direct = client.NewWithOptions(directURL, opts)
	s.viaFleet = client.NewWithOptions(fts.URL, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, u := range append(nodes, directURL, fts.URL) {
		if err := client.NewWithOptions(u, opts).Ready(ctx); err != nil {
			return fmt.Errorf("%s not ready: %w", u, err)
		}
	}
	return nil
}

func (s *serviceRunner) teardown() {
	for _, ts := range s.https {
		ts.Close()
	}
	// Every job has finished by now, so a drain error leaves nothing
	// unreported, and a temp dir left behind stays under the temp dir.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.front != nil {
		_ = s.front.Shutdown(ctx)
	}
	for _, d := range s.daemons {
		_ = d.Shutdown(ctx)
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
	s.https, s.daemons, s.front, s.dir = nil, nil, nil, ""
}

// spec builds a resnet_s job: a fresh campaign in format f, or with
// sampled, a 25% sampled and pruned one.
func (s *serviceRunner) spec(r *rng.RNG, format string, sampled bool) *server.JobSpec {
	asg, err := goldeneye.ParseFormatMap("a:" + format)
	if err != nil {
		panic(err) // the format lists above are constants
	}
	sp := &server.JobSpec{
		Model:     "resnet_s",
		Samples:   s.sizes.samples,
		EvalBatch: s.sizes.batch,
		Campaign: goldeneye.CampaignConfig{
			Assignment: asg,
			Site:       goldeneye.SiteValue,
			Target:     goldeneye.TargetNeuron,
			Layer:      -1,
			Injections: s.sizes.fresh,
			Seed:       r.Uint64(),
			BatchSize:  s.sizes.batch,
			UseRanger:  true,
		},
	}
	if sampled {
		sp.Campaign.Injections = s.sizes.sampled
		sp.Campaign.Sampling = &sampling.Plan{Fraction: 0.25, Prune: true}
	}
	return sp
}

// block generates block b of the job sequence from the run's seed alone,
// so job i is the same job whatever the window length.
func (s *serviceRunner) block(seed uint64, b int) []serviceJob {
	r := rng.New(seed ^ (uint64(b)+1)*0x9e3779b97f4a7c15)
	jobs := make([]serviceJob, len(blockMix))
	var nFresh, nSampled, nFleet int
	for pos, mixIdx := range r.Perm(len(blockMix)) {
		j := serviceJob{kind: blockMix[mixIdx]}
		switch j.kind {
		case jobFresh:
			j.spec = s.spec(r, serviceFormats[(b*10+nFresh)%len(serviceFormats)], false)
			nFresh++
		case jobSampled:
			j.spec = s.spec(r, sampledFormats[(b*3+nSampled)%len(sampledFormats)], true)
			nSampled++
		case jobFleet:
			j.spec = s.spec(r, serviceFormats[(b*3+nFleet)%len(serviceFormats)], false)
			nFleet++
		case jobHit:
			j.warm = r.Intn(len(s.warmSpecs))
			j.spec = s.warmSpecs[j.warm]
		}
		jobs[pos] = j
	}
	return jobs
}

// warmup runs one fresh job per format (the jobs the mix later repeats as
// cache hits) and one fleet job.
func (s *serviceRunner) warmup(e *env) error {
	ctx := context.Background()
	r := rng.New(e.o.seed)
	s.warmSpecs, s.warmWires = nil, nil
	for _, f := range serviceFormats {
		sp := s.spec(r, f, false)
		e.attempted++
		rep, err := s.direct.Run(ctx, sp, nil)
		if err != nil {
			return err
		}
		wire, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		s.warmSpecs = append(s.warmSpecs, sp)
		s.warmWires = append(s.warmWires, wire)
	}
	s.fleetSpec = s.spec(r, serviceFormats[0], false)
	e.attempted++
	rep, err := s.viaFleet.Run(ctx, s.fleetSpec, nil)
	if err != nil {
		return err
	}
	s.fleetWire, err = json.Marshal(rep)
	s.counters = counterTotals(s.serverReg, s.fleetReg, s.clientReg)
	return err
}

// window runs whole blocks, each through load closed-loop clients that
// claim its jobs in order; a round is one block, so every round runs the
// same mix.
func (s *serviceRunner) window(e *env, deadline time.Time) {
	e.rounds(deadline, func(b int, traced bool) float64 {
		jobs := s.block(e.o.seed, b)
		results := make([]*jobResult, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < load; c++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
					results[i] = s.run(e, b*len(jobs)+i, jobs[i], lane, traced)
				}
			}(c + 1)
		}
		wg.Wait()
		done := 0
		for i, res := range results {
			op := b*len(jobs) + i
			e.attempted++
			if res.err != nil {
				e.fail("job %d (%s): %v", op, res.kind, res.err)
				continue
			}
			done++
			e.output(op, res.wire)
			e.opLatency(res.latency, traced, res.kind == jobFresh)
		}
		s.results = append(s.results, results...)
		return float64(done)
	})
}

// run submits one job and follows it to its report: the closed loop's
// unit of work, timed from the Submit call to the report in hand.
func (s *serviceRunner) run(e *env, i int, j serviceJob, lane int, traced bool) *jobResult {
	res := &jobResult{kind: j.kind, warm: j.warm}
	tr := e.spans(traced)
	cli := s.direct
	if j.kind == jobFleet {
		cli = s.viaFleet
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	id := tr.begin("job."+j.kind.String(), -1, i, lane)
	defer tr.end(id)
	start := time.Now()
	sid := tr.begin("client.Submit", id, i, lane)
	st, err := cli.Submit(ctx, j.spec)
	tr.end(sid)
	res.submit = time.Since(start)
	if err != nil {
		res.err = err
		return res
	}
	var running time.Time
	var rep *goldeneye.CampaignReport
	if st.State == server.JobDone {
		rid := tr.begin("client.Report", id, i, lane)
		rep, err = cli.Report(ctx, st.ID)
		tr.end(rid)
	} else {
		var onProgress func(server.JobStatus)
		if traced {
			onProgress = func(st server.JobStatus) {
				if running.IsZero() && st.State == server.JobRunning {
					running = time.Now()
				}
			}
		}
		streamStart := time.Now()
		rid := tr.begin("client.Stream", id, i, lane)
		rep, err = cli.Stream(ctx, st.ID, onProgress)
		tr.end(rid)
		if !running.IsZero() {
			// The job's phases as the SSE stream showed them; what remains
			// of the stream span is delivery after the job finished.
			tr.record("server.queued", streamStart, running, rid, i, lane)
			tr.record("server.running", running, time.Now(), rid, i, lane)
		}
	}
	end := time.Now()
	res.latency = end.Sub(start)
	if err != nil {
		res.err = err
		return res
	}
	if !running.IsZero() {
		res.sawRunning = true
		res.queueWait, res.exec = running.Sub(start), end.Sub(running)
	}
	if rep.Interrupted || rep.Injections+rep.Aborted == 0 {
		res.err = fmt.Errorf("incomplete report: %d injections, interrupted=%v", rep.Injections, rep.Interrupted)
		return res
	}
	res.report = rep
	res.wire, res.err = json.Marshal(rep)
	return res
}

// check: every cache hit is byte-identical to the job it repeats, every
// sampled report accounts for its whole fault space, and the warm-up
// fleet job resubmitted directly at workers=2 is byte-identical to the
// fleet's merged report.
func (s *serviceRunner) check(e *env) {
	for i, res := range s.results {
		switch {
		case res.err != nil:
		case res.kind == jobHit:
			e.attempted++
			if !bytes.Equal(res.wire, s.warmWires[res.warm]) {
				e.fail("job %d: cache hit differs from the report it repeats", i)
			}
		case res.kind == jobSampled:
			e.attempted++
			sr := res.report.Sampling
			if sr == nil {
				e.fail("job %d: sampled report carries no sampling accounting", i)
				continue
			}
			got := sr.ExecutedTotal() + sr.PrunedTotal() + sr.SkippedTotal() + sr.AbortedTotal()
			if got != sr.FaultSpace() || sr.FaultSpace() != res.report.Config.Injections {
				e.fail("job %d: executed+pruned+skipped+aborted = %d, fault space %d, injections %d",
					i, got, sr.FaultSpace(), res.report.Config.Injections)
			}
		}
	}
	e.attempted++
	spec := *s.fleetSpec
	spec.Workers = load
	rep, err := s.direct.Run(context.Background(), &spec, nil)
	if err != nil {
		e.fail("direct rerun of the fleet job: %v", err)
		return
	}
	if wire, _ := json.Marshal(rep); !bytes.Equal(wire, s.fleetWire) {
		e.fail("fleet report differs from the same job run directly at workers=%d", load)
	}
}

func (s *serviceRunner) layers(e *env, m map[string]float64) {
	byKind := map[jobKind][]float64{}
	var submit, queue, exec, all []float64
	var injections, mismatches, nonFinite int
	var space, executed, pruned, skipped int
	for _, res := range s.results {
		if res.err != nil {
			continue
		}
		byKind[res.kind] = append(byKind[res.kind], res.latency.Seconds())
		all = append(all, res.latency.Seconds())
		submit = append(submit, res.submit.Seconds())
		if res.sawRunning {
			queue = append(queue, res.queueWait.Seconds())
			exec = append(exec, res.exec.Seconds())
		}
		if res.kind == jobHit {
			continue // a hit re-delivers a report; it executes nothing
		}
		injections += res.report.Injections
		mismatches += res.report.Mismatches
		nonFinite += res.report.NonFinite
		if sr := res.report.Sampling; sr != nil {
			space += sr.FaultSpace()
			executed += sr.ExecutedTotal()
			pruned += sr.PrunedTotal()
			skipped += sr.SkippedTotal()
		}
	}
	m["server.submit_s_p50"] = median(submit)
	m["server.queue_wait_s_p50"] = median(queue)
	m["server.exec_s_p50"] = median(exec)
	m["server.fresh_latency_p50_s"] = median(byKind[jobFresh])
	m["server.sampled_latency_p50_s"] = median(byKind[jobSampled])
	m["server.hit_latency_p50_s"] = median(byKind[jobHit])
	m["server.job_latency_p90_s"] = percentile(all, 90)
	m["fleet.job_latency_p50_s"] = median(byKind[jobFleet])
	m["inject.injections"] = float64(injections)
	m["inject.mismatches"] = float64(mismatches)
	m["inject.nonfinite"] = float64(nonFinite)
	m["inject.sdc_rate"] = ratio(float64(mismatches), float64(injections))
	m["sampling.fault_space"] = float64(space)
	m["sampling.executed"] = float64(executed)
	m["sampling.pruned"] = float64(pruned)
	m["sampling.skipped"] = float64(skipped)
	m["sampling.executed_ratio"] = ratio(float64(executed), float64(space))

	now := counterTotals(s.serverReg, s.fleetReg, s.clientReg)
	delta := func(name string) float64 { return now[name] - s.counters[name] }
	m["server.cache_hits"] = delta(server.MetricCacheHits)
	m["server.cache_misses"] = delta(server.MetricCacheMisses)
	m["server.journal_records"] = delta(server.MetricJournalRecords)
	m["server.rejected"] = delta(server.MetricRejected)
	m["client.retries"] = delta(client.MetricRetries)
	m["fleet.shards_done"] = delta(fleet.MetricShardsDone)
	m["fleet.reassigned"] = delta(fleet.MetricShardsReassigned)
	m["fleet.stolen"] = delta(fleet.MetricShardsStolen)
	m["fleet.replays"] = delta(fleet.MetricReplays)
	m["fleet.node_shard_s_mean"] = ratio(delta(fleet.MetricNodeShardSeconds+"_sum"), delta(fleet.MetricNodeShardSeconds+"_count"))
}

// counterTotals sums every counter of the registries by metric name with
// its labels dropped; histograms contribute "<name>_sum" and
// "<name>_count".
func counterTotals(regs ...*telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, reg := range regs {
		if reg == nil {
			continue
		}
		for _, m := range reg.Snapshot() {
			name, _, _ := strings.Cut(m.Name, "{")
			switch m.Kind {
			case telemetry.KindCounter:
				out[name] += m.Value
			case telemetry.KindHistogram:
				out[name+"_sum"] += m.Sum
				out[name+"_count"] += float64(m.Count)
			}
		}
	}
	return out
}
