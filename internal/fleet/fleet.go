// Package fleet is the distributed campaign fabric: a coordinator that
// splits one campaign into deterministic stride shards (ShardConfigs),
// farms them to a fleet of goldeneyed daemons over the /v1/jobs API, and
// merges the shard reports (MergeShardReports) into a CampaignReport
// byte-identical to a single-node run at the equal effective worker count
// — a K-shard fleet reproduces RunCampaignParallel at workers=K exactly.
//
// The fabric survives node failure. Every shard dispatch holds a lease
// renewed by SSE progress; a node that dies (SIGKILL), partitions,
// stalls, or drains loses its lease and the shard is reassigned to a
// healthy node. Dispatches carry deterministic per-shard idempotency
// keys, so a re-dispatched shard that actually completed on a recovered
// node is served from that node's journal and result cache rather than
// re-executed. Failing nodes are quarantined with exponential backoff and
// re-admitted after a successful /readyz probe; idle nodes steal shards
// whose progress has gone quiet so one straggler cannot gate completion.
// A fleet that loses nodes finishes degraded-but-correct on the
// survivors as long as at least Options.MinNodes stay healthy; below
// that the run fails with a typed *InsufficientFleetError carrying the
// completed shard reports.
//
// A Coordinator is also a server.Executor: as server.Options.Executor it
// backs the ordinary job server, which is how `goldeneyed -fleet` serves
// the single-daemon job API — journal and result cache included — for a
// whole fleet.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"time"

	"goldeneye"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
	"goldeneye/internal/telemetry"
)

// Fleet metric names, registered in Options.Registry (see
// internal/telemetry/README.md for the inventory).
const (
	// MetricShardsInflight gauges shards currently executing on some node.
	MetricShardsInflight = "goldeneye_fleet_shards_inflight"

	// MetricShardsDone counts shard completions (first completion per
	// shard; a stolen duplicate finishing second does not count).
	MetricShardsDone = "goldeneye_fleet_shards_done_total"

	// MetricShardsReassigned counts shards released back to the pending
	// set after their executing node died, stalled, or drained.
	MetricShardsReassigned = "goldeneye_fleet_shards_reassigned_total"

	// MetricShardsStolen counts work-stealing dispatches: an idle node
	// duplicating an in-flight shard whose progress went quiet.
	MetricShardsStolen = "goldeneye_fleet_shards_stolen_total"

	// MetricReplays counts idempotent replays: a shard dispatch answered
	// terminally at submit time from a node's journal or result cache,
	// proving the shard was not re-executed.
	MetricReplays = "goldeneye_fleet_idempotent_replays_total"

	// MetricNodeState gauges each node's health (labeled node=): 1
	// healthy, 0 quarantined, -1 lost.
	MetricNodeState = "goldeneye_fleet_node_state"

	// MetricNodeQuarantines counts quarantine entries per node (labeled
	// node=).
	MetricNodeQuarantines = "goldeneye_fleet_node_quarantines_total"

	// MetricNodeShardSeconds is the per-node shard service-time histogram
	// (labeled node=), successful dispatches only.
	MetricNodeShardSeconds = "goldeneye_fleet_node_shard_seconds"

	// MetricDegraded gauges whether the last completed campaign finished
	// degraded (nodes lost but >= MinNodes healthy).
	MetricDegraded = "goldeneye_fleet_degraded"
)

// Node health states, as exposed through MetricNodeState.
const (
	nodeHealthy     = 1.0
	nodeQuarantined = 0.0
	nodeLost        = -1.0
)

// pollInterval paces the scheduler's idle wait: how often an idle node
// re-scans for pending work and re-evaluates steal eligibility.
const pollInterval = 100 * time.Millisecond

// Options configures a fleet Coordinator. The zero value gets defaults
// from New.
type Options struct {
	// Shards is the number of stride shards to split a campaign into
	// (clamped to the injection count). 0 means one shard per node — the
	// "equal effective worker counts" contract then pins the merged
	// report byte-identical to a single node running workers=len(nodes).
	Shards int

	// MinNodes is the minimum healthy node count the fleet tolerates.
	// While at least MinNodes nodes are healthy the campaign finishes on
	// the survivors (marked degraded if any were lost); the moment fewer
	// remain, the run fails with *InsufficientFleetError. Default 1.
	MinNodes int

	// LeaseTimeout is the shard lease: the longest a dispatched shard may
	// go without SSE progress advancing before its node is declared
	// stalled and the shard reassigned. Default 2m.
	LeaseTimeout time.Duration

	// StealAfter is the work-stealing threshold: an idle node duplicates
	// an in-flight shard only once that shard's progress has been quiet
	// this long — healthy shards are never duplicated, so a failure-free
	// fleet runs every shard exactly once. Default LeaseTimeout/2.
	StealAfter time.Duration

	// QuarantineBase and QuarantineMax shape the exponential backoff a
	// failing node sits out before each re-admission probe (defaults
	// 500ms and 15s).
	QuarantineBase time.Duration
	QuarantineMax  time.Duration

	// LostAfter is the number of consecutive failed dispatch/probe cycles
	// after which a node counts as lost for the MinNodes check and the
	// degraded marker (it keeps probing and may still rejoin). Default 3.
	LostAfter int

	// Registry receives the goldeneye_fleet_* metrics (nil = fresh).
	Registry *telemetry.Registry

	// Client configures the per-node campaign-service clients (timeouts,
	// retry budget, chaos transports in tests).
	Client client.Options

	// Logf, when non-nil, receives coordinator lifecycle lines (dispatch,
	// reassignment, quarantine, degradation).
	Logf func(format string, args ...interface{})
}

func (o *Options) withDefaults() {
	if o.MinNodes <= 0 {
		o.MinNodes = 1
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 2 * time.Minute
	}
	if o.StealAfter <= 0 {
		o.StealAfter = o.LeaseTimeout / 2
	}
	if o.QuarantineBase <= 0 {
		o.QuarantineBase = 500 * time.Millisecond
	}
	if o.QuarantineMax <= 0 {
		o.QuarantineMax = 15 * time.Second
	}
	if o.LostAfter <= 0 {
		o.LostAfter = 3
	}
	if o.Registry == nil {
		o.Registry = telemetry.NewRegistry()
	}
}

// Stats summarizes one campaign's robustness events.
type Stats struct {
	// Shards is the number of stride shards the campaign ran as.
	Shards int

	// Reassigned counts shard releases back to the pending set after a
	// node failure or expired lease.
	Reassigned int

	// Stolen counts work-stealing dispatches.
	Stolen int

	// Replayed counts shard dispatches served terminally at submit time
	// from a node's journal/result cache (idempotent replay, no
	// re-execution).
	Replayed int

	// NodesLost lists the nodes still in the lost state when the
	// campaign finished.
	NodesLost []string
}

// Report is a fleet campaign's outcome: the merged CampaignReport —
// byte-identical on the wire to a single-node run, which is why the
// degraded marker lives out here rather than inside it — plus the
// fleet's robustness accounting.
type Report struct {
	*goldeneye.CampaignReport

	// Degraded is set when the fleet lost nodes during the campaign but
	// finished correctly on at least MinNodes survivors.
	Degraded bool

	Stats Stats
}

// InsufficientFleetError reports a campaign abandoned because fewer than
// MinNodes nodes remained healthy. Completed holds the shard reports
// that finished before the fleet collapsed (partial results, preserved
// for salvage); Cause is the final node failure that tripped the
// threshold.
type InsufficientFleetError struct {
	Healthy   int
	Min       int
	Completed []*goldeneye.CampaignReport
	Cause     error
}

func (e *InsufficientFleetError) Error() string {
	return fmt.Sprintf("fleet: %d healthy nodes below minimum %d (%d shards completed): %v",
		e.Healthy, e.Min, len(e.Completed), e.Cause)
}

func (e *InsufficientFleetError) Unwrap() error { return e.Cause }

// node is one daemon in the fleet and its health accounting.
type node struct {
	addr string
	cli  *client.Client

	mu          sync.Mutex
	consecutive int // consecutive failed dispatch/probe cycles
	quarantines int
	lost        bool

	state *telemetry.Gauge
}

// Coordinator shards campaigns across a fleet of goldeneyed daemons. It
// is safe for concurrent use: Run serializes, running one campaign at a
// time; a call waiting for its turn returns early if its ctx ends. As a server.Executor it backs the ordinary job server, which then
// fronts the whole fleet with the single-daemon job API.
type Coordinator struct {
	nodes []*node
	opts  Options
	reg   *telemetry.Registry

	running chan struct{} // one-slot semaphore: one fleet campaign at a time
}

// New returns a coordinator over the daemons at addrs (base URLs, e.g.
// "http://host:7726").
func New(addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("fleet: no nodes")
	}
	opts.withDefaults()
	c := &Coordinator{opts: opts, reg: opts.Registry, running: make(chan struct{}, 1)}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" || seen[a] {
			return nil, fmt.Errorf("fleet: empty or duplicate node %q", a)
		}
		seen[a] = true
		cliOpts := opts.Client
		n := &node{
			addr:  a,
			cli:   client.NewWithOptions(a, cliOpts),
			state: c.reg.Gauge(telemetry.Label(MetricNodeState, "node", a)),
		}
		n.state.Set(nodeHealthy)
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Nodes returns the fleet's node addresses, coordinator order.
func (c *Coordinator) Nodes() []string {
	addrs := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		addrs[i] = n.addr
	}
	return addrs
}

// Registry exposes the coordinator's telemetry registry.
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// shardKey derives the deterministic idempotency key for one shard of
// one campaign: a hash of the shard's full job spec (model, pool,
// campaign — shard geometry included). Deterministic keys make
// re-dispatch after any failure — including a coordinator restart — an
// idempotent replay on a node that already ran the shard.
func shardKey(specJSON []byte, shard int) string {
	h := fnv.New64a()
	h.Write(specJSON)
	return fmt.Sprintf("fleet-%016x-s%d", h.Sum64(), shard)
}

// shardState tracks one shard through dispatch, failure, and completion.
// All fields are guarded by run.mu.
type shardState struct {
	spec     *server.JobSpec
	specJSON []byte
	planned  int

	done        bool
	report      *goldeneye.CampaignReport
	progress    int // latest SSE Done count across executors
	lastAdvance time.Time
	executors   map[*node]string // node -> job id ("" until submit returns)
}

// run is the mutable state of one fleet campaign.
type run struct {
	c      *Coordinator
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	shards    []*shardState
	completed int
	fatal     error

	reassigned int
	stolen     int
	replayed   int

	onProgress func(done, total int)
	total      int
	progMu     sync.Mutex // serializes onProgress callbacks
	progLast   int        // guarded by progMu; keeps the stream monotonic
}

// Run executes spec across the fleet and returns the merged report. The
// spec must pass Check and is not mutated. onProgress (may be nil)
// receives cumulative injection progress across all shards. Concurrent
// calls queue behind one another. The shard count is Check's answer for
// spec.
//
// On success the merged CampaignReport is byte-identical on the wire to
// the same spec run on a single node with Workers equal to the shard
// count. If nodes were lost along the way the Report is marked Degraded;
// if fewer than MinNodes nodes remain healthy the run fails with a typed
// *InsufficientFleetError preserving completed shard reports. Run never
// hangs on a dead fleet: every dispatch is bounded by the client's retry
// budget and the shard lease.
func (c *Coordinator) Run(ctx context.Context, spec *server.JobSpec, onProgress func(done, total int)) (*Report, error) {
	k, err := c.Check(spec)
	if err != nil {
		return nil, err
	}
	return c.run(ctx, spec, k, onProgress)
}

// run executes a checked spec as k stride shards (see Run).
func (c *Coordinator) run(ctx context.Context, spec *server.JobSpec, k int, onProgress func(done, total int)) (*Report, error) {
	select {
	case c.running <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-c.running }()
	shardCfgs := goldeneye.ShardConfigs(spec.Campaign, k)

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{
		c:          c,
		ctx:        rctx,
		cancel:     cancel,
		onProgress: onProgress,
		total:      spec.Campaign.Injections,
	}
	now := time.Now()
	for _, cfg := range shardCfgs {
		sp := *spec
		sp.Campaign = cfg
		sp.Workers = 1
		specJSON, err := json.Marshal(&sp)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard spec not serializable: %w", err)
		}
		r.shards = append(r.shards, &shardState{
			spec:        &sp,
			specJSON:    specJSON,
			planned:     cfg.PlannedInjections(),
			lastAdvance: now,
			executors:   make(map[*node]string),
		})
	}

	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			r.nodeLoop(n)
		}(n)
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	stats := Stats{
		Shards:     k,
		Reassigned: r.reassigned,
		Stolen:     r.stolen,
		Replayed:   r.replayed,
		NodesLost:  c.lostNodes(),
	}
	if r.fatal != nil {
		var insuff *InsufficientFleetError
		if errors.As(r.fatal, &insuff) {
			insuff.Completed = r.completedReportsLocked()
		}
		return nil, r.fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reports := make([]*goldeneye.CampaignReport, 0, k)
	for _, sh := range r.shards {
		reports = append(reports, sh.report)
	}
	merged, err := goldeneye.MergeShardReports(reports)
	if err != nil {
		return nil, err
	}
	degraded := len(stats.NodesLost) > 0
	if degraded {
		c.reg.Gauge(MetricDegraded).Set(1)
		c.logf("fleet: campaign finished DEGRADED on %d/%d nodes (lost: %v)",
			len(c.nodes)-len(stats.NodesLost), len(c.nodes), stats.NodesLost)
	} else {
		c.reg.Gauge(MetricDegraded).Set(0)
	}
	return &Report{CampaignReport: merged, Degraded: degraded, Stats: stats}, nil
}

// Check vets spec for a fleet run and returns the number of stride
// shards it runs as — the worker count a single node needs to produce
// the same report bytes. The spec must be unsharded (the coordinator owns
// the shard geometry), serial per shard, and free of sequential stopping,
// which needs a review barrier the independent shards do not share.
func (c *Coordinator) Check(spec *server.JobSpec) (int, error) {
	if spec.Campaign.ShardCount > 1 {
		return 0, &goldeneye.ConfigError{Field: "Campaign.ShardCount",
			Reason: "fleet campaigns must be unsharded; the coordinator assigns shard geometry"}
	}
	if spec.Workers > 1 {
		return 0, &goldeneye.ConfigError{Field: "Workers",
			Reason: fmt.Sprintf("fleet campaigns run one serial worker per shard; got workers=%d (set Options.Shards instead)", spec.Workers)}
	}
	if spec.Campaign.Sampling != nil && spec.Campaign.Sampling.TargetCI > 0 {
		return 0, &goldeneye.ConfigError{Field: "Campaign.Sampling.TargetCI",
			Reason: "sequential stopping needs a shared review barrier; fleet shards run independently (drop TargetCI or run on one node)"}
	}
	k := c.opts.Shards
	if k <= 0 {
		k = len(c.nodes)
	}
	return max(1, min(k, spec.Campaign.Injections)), nil
}

// completedReportsLocked collects the reports of completed shards, shard
// order. Callers hold r.mu.
func (r *run) completedReportsLocked() []*goldeneye.CampaignReport {
	var done []*goldeneye.CampaignReport
	for _, sh := range r.shards {
		if sh.done {
			done = append(done, sh.report)
		}
	}
	return done
}

// lostNodes lists nodes currently in the lost state.
func (c *Coordinator) lostNodes() []string {
	var lost []string
	for _, n := range c.nodes {
		n.mu.Lock()
		if n.lost {
			lost = append(lost, n.addr)
		}
		n.mu.Unlock()
	}
	return lost
}

// healthyCount counts nodes not currently lost.
func (c *Coordinator) healthyCount() int {
	healthy := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		if !n.lost {
			healthy++
		}
		n.mu.Unlock()
	}
	return healthy
}

// finishedLocked reports whether the run is over. Callers hold r.mu.
func (r *run) finishedLocked() bool {
	return r.fatal != nil || r.completed == len(r.shards) || r.ctx.Err() != nil
}

// nextShard picks the node's next dispatch under the scheduling policy:
// a pending shard (not done, nobody executing) first, preferring the
// node's own shards (index ≡ node position mod node count); otherwise
// steal the in-flight shard whose progress has been quiet past StealAfter
// (at most one duplicate per shard). Fixed home nodes make placement
// repeatable, so a restarted coordinator sends each completed shard back
// to the node whose idempotency index holds it. Blocks — polling, so
// steal eligibility ages in — until work exists or the run is over;
// ok=false means done.
func (r *run) nextShard(n *node) (idx int, ok bool) {
	for {
		r.mu.Lock()
		if r.finishedLocked() {
			r.mu.Unlock()
			return 0, false
		}
		best, bestSteal, found := -1, false, false
		var quietest time.Time
		for i, sh := range r.shards {
			if sh.done {
				continue
			}
			if len(sh.executors) == 0 {
				if r.c.nodes[i%len(r.c.nodes)] == n {
					best, bestSteal, found = i, false, true
					break
				}
				if !found || bestSteal {
					best, bestSteal, found = i, false, true
				}
				continue
			}
			// Steal candidate, only while no shard is pending: exactly one
			// executor (bounding duplicated work to one copy per shard),
			// not us, and quiet past the threshold — a shard advancing
			// normally is never duplicated.
			if len(sh.executors) == 1 && (!found || bestSteal) {
				if _, mine := sh.executors[n]; mine {
					continue
				}
				if time.Since(sh.lastAdvance) < r.c.opts.StealAfter {
					continue
				}
				if !found || sh.lastAdvance.Before(quietest) {
					best, bestSteal, found, quietest = i, true, true, sh.lastAdvance
				}
			}
		}
		if found {
			sh := r.shards[best]
			sh.executors[n] = ""
			if bestSteal {
				r.stolen++
				r.c.reg.Counter(MetricShardsStolen).Inc()
				r.c.logf("fleet: node %s stealing quiet shard %d", n.addr, best)
			}
			r.c.reg.Gauge(MetricShardsInflight).Set(float64(r.inflightLocked()))
			r.mu.Unlock()
			return best, true
		}
		r.mu.Unlock()
		select {
		case <-r.ctx.Done():
			return 0, false
		case <-time.After(pollInterval):
		}
	}
}

// inflightLocked counts shards with at least one executor. Callers hold
// r.mu.
func (r *run) inflightLocked() int {
	inflight := 0
	for _, sh := range r.shards {
		if !sh.done && len(sh.executors) > 0 {
			inflight++
		}
	}
	return inflight
}

// nodeLoop is one node's scheduling loop: take (or steal) a shard,
// execute it, handle the outcome, quarantine after failures, repeat
// until the run finishes.
func (r *run) nodeLoop(n *node) {
	for {
		idx, ok := r.nextShard(n)
		if !ok {
			return
		}
		err := r.executeShard(n, idx)
		if err == nil {
			n.recovered()
			continue
		}
		if r.ctx.Err() != nil {
			r.release(n, idx)
			return
		}
		r.nodeFailed(n, idx, err)
		if !r.quarantine(n) {
			return
		}
	}
}

// executeShard dispatches shard idx to node n and follows it to
// completion. A nil return means the shard's report was delivered (by us
// or a concurrent duplicate); an error means this node failed and the
// shard should be reassigned.
func (r *run) executeShard(n *node, idx int) error {
	sh := r.shards[idx]
	key := shardKey(sh.specJSON, idx)

	st, err := n.cli.SubmitWithKey(r.ctx, sh.spec, key)
	if err != nil {
		if fatal, ok := campaignFatal(err); ok {
			r.abort(fatal)
			return nil
		}
		return fmt.Errorf("submit shard %d: %w", idx, err)
	}
	r.mu.Lock()
	if sh.done { // a duplicate won while we were submitting
		r.releaseLocked(n, idx)
		r.mu.Unlock()
		go r.cancelJob(n, st.ID)
		return nil
	}
	sh.executors[n] = st.ID
	r.mu.Unlock()

	if st.State.Terminal() {
		// Idempotent replay or cache hit: the node already ran this shard
		// (before a crash, or as an earlier dispatch the coordinator gave
		// up on) and answered from its journal+cache without re-executing.
		if st.State != server.JobDone {
			return fmt.Errorf("shard %d replayed terminal state %s: %s", idx, st.State, st.Error)
		}
		r.mu.Lock()
		r.replayed++
		r.mu.Unlock()
		r.c.reg.Counter(MetricReplays).Inc()
		r.c.logf("fleet: shard %d served idempotently from %s", idx, n.addr)
		rep, rerr := n.cli.Report(r.ctx, st.ID)
		if rerr != nil {
			return fmt.Errorf("fetch replayed shard %d: %w", idx, rerr)
		}
		return r.deliver(n, idx, rep, time.Time{})
	}

	// Shard lease: the stream may stay connected (or keep reconnecting)
	// indefinitely, but if reported progress stops advancing for
	// LeaseTimeout the node is stalled — cut the stream and reassign.
	leaseCtx, cancelLease := context.WithCancel(r.ctx)
	defer cancelLease()
	lease := time.AfterFunc(r.c.opts.LeaseTimeout, cancelLease)
	defer lease.Stop()

	start := time.Now()
	lastDone := -1
	rep, err := n.cli.Stream(leaseCtx, st.ID, func(js server.JobStatus) {
		if js.Done > lastDone {
			lastDone = js.Done
			lease.Reset(r.c.opts.LeaseTimeout)
			r.noteProgress(idx, js.Done)
		}
	})
	if err != nil {
		r.mu.Lock()
		done := sh.done
		r.mu.Unlock()
		if done {
			// The shard completed elsewhere and the winner cancelled our
			// duplicate; this dispatch succeeded vacuously.
			r.release(n, idx)
			return nil
		}
		if fatal, ok := campaignFatal(err); ok {
			r.abort(fatal)
			return nil
		}
		if leaseCtx.Err() != nil && r.ctx.Err() == nil {
			return fmt.Errorf("shard %d lease expired after %s without progress", idx, r.c.opts.LeaseTimeout)
		}
		return fmt.Errorf("stream shard %d: %w", idx, err)
	}
	return r.deliver(n, idx, rep, start)
}

// campaignFatal classifies an error as a campaign-level failure — the
// job itself is invalid or deterministically failing, so retrying it on
// another node would fail identically. Node-level trouble (transport
// errors, exhausted retries, 5xx, queue rejection, not-ready) stays
// retryable.
func campaignFatal(err error) (error, bool) {
	var api *client.APIError
	if errors.As(err, &api) {
		switch api.StatusCode {
		case http.StatusBadRequest:
			return fmt.Errorf("fleet: campaign rejected: %w", api), true
		case http.StatusInternalServerError:
			// A "failed" terminal event: the campaign itself failed on the
			// node (run-time config error, abort threshold exceeded).
			// Deterministic, so don't burn the fleet retrying it.
			return fmt.Errorf("fleet: campaign failed: %w", api), true
		}
	}
	return nil, false
}

// deliver records a completed shard report. The first completion wins;
// losers of a duplicate race are dropped and their jobs cancelled.
func (r *run) deliver(n *node, idx int, rep *goldeneye.CampaignReport, start time.Time) error {
	sh := r.shards[idx]
	if rep == nil {
		return fmt.Errorf("shard %d returned no report", idx)
	}
	if rep.Interrupted {
		return fmt.Errorf("shard %d report marked interrupted", idx)
	}
	if rep.Sampling != nil {
		// A sampled shard executes only its selection; completeness is that
		// its estimator accounted the shard's whole stride slice.
		if covered := rep.Sampling.FaultSpace(); covered != sh.planned {
			return fmt.Errorf("shard %d covered %d of %d planned fault-space indices", idx, covered, sh.planned)
		}
	} else if executed := rep.Injections + rep.Aborted; executed != sh.planned {
		return fmt.Errorf("shard %d executed %d of %d planned injections", idx, executed, sh.planned)
	}
	r.mu.Lock()
	if sh.done {
		r.releaseLocked(n, idx)
		r.mu.Unlock()
		return nil
	}
	sh.done = true
	sh.report = rep
	sh.progress = sh.planned
	type loser struct {
		n  *node
		id string
	}
	var losers []loser
	for other, jobID := range sh.executors {
		if other != n && jobID != "" {
			losers = append(losers, loser{other, jobID})
		}
	}
	r.releaseLocked(n, idx)
	r.completed++
	allDone := r.completed == len(r.shards)
	r.c.reg.Counter(MetricShardsDone).Inc()
	r.c.reg.Gauge(MetricShardsInflight).Set(float64(r.inflightLocked()))
	r.mu.Unlock()

	if !start.IsZero() {
		r.c.reg.Histogram(telemetry.Label(MetricNodeShardSeconds, "node", n.addr),
			telemetry.ExponentialBuckets(0.01, 2, 12)).Observe(time.Since(start).Seconds())
	}
	r.reportProgress()
	// Best-effort: stop duplicate executions that lost the race.
	for _, l := range losers {
		go r.cancelJob(l.n, l.id)
	}
	if allDone {
		// Unblock idle pollers and quarantined probers immediately.
		r.cancel()
	}
	return nil
}

// release removes n from shard idx's executor set.
func (r *run) release(n *node, idx int) {
	r.mu.Lock()
	r.releaseLocked(n, idx)
	r.mu.Unlock()
}

// releaseLocked is release with r.mu held.
func (r *run) releaseLocked(n *node, idx int) {
	delete(r.shards[idx].executors, n)
}

// cancelJob best-effort cancels a job on a node, bounded so a dead node
// cannot stall the caller.
func (r *run) cancelJob(n *node, id string) {
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = n.cli.Cancel(ctx, id)
}

// noteProgress folds one shard's SSE progress into the fleet-wide
// rollup and renews its steal clock.
func (r *run) noteProgress(idx, done int) {
	r.mu.Lock()
	sh := r.shards[idx]
	if !sh.done && done > sh.progress {
		sh.progress = done
	}
	sh.lastAdvance = time.Now()
	r.mu.Unlock()
	r.reportProgress()
}

// reportProgress publishes cumulative injection progress to the caller.
// Callbacks are serialized (progMu) and monotonic, so callers need no
// synchronization of their own even though many node goroutines report.
func (r *run) reportProgress() {
	if r.onProgress == nil {
		return
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	r.mu.Lock()
	done := 0
	for _, sh := range r.shards {
		done += sh.progress
	}
	r.mu.Unlock()
	if done <= r.progLast {
		return
	}
	r.progLast = done
	r.onProgress(done, r.total)
}

// abort fails the whole run with a campaign-level error.
func (r *run) abort(err error) {
	r.mu.Lock()
	if r.fatal == nil {
		r.fatal = err
	}
	r.mu.Unlock()
	r.cancel()
}

// nodeFailed handles one dispatch failure: release the shard for
// reassignment and advance the node toward the lost state.
func (r *run) nodeFailed(n *node, idx int, cause error) {
	r.mu.Lock()
	sh := r.shards[idx]
	r.releaseLocked(n, idx)
	if !sh.done {
		r.reassigned++
		r.c.reg.Counter(MetricShardsReassigned).Inc()
	}
	r.c.reg.Gauge(MetricShardsInflight).Set(float64(r.inflightLocked()))
	r.mu.Unlock()
	r.c.logf("fleet: node %s failed shard %d: %v", n.addr, idx, cause)
	r.nodeStruck(n, cause)
}

// nodeStruck advances a node toward the lost state after any failed
// dispatch or re-admission probe, failing the run once the healthy fleet
// shrinks below MinNodes. Probe failures must count too: a dead node
// spends the campaign in the quarantine loop, and if only dispatches
// counted it would never cross LostAfter.
func (r *run) nodeStruck(n *node, cause error) {
	n.mu.Lock()
	n.consecutive++
	newlyLost := !n.lost && n.consecutive >= r.c.opts.LostAfter
	if newlyLost {
		n.lost = true
		n.state.Set(nodeLost)
	}
	n.mu.Unlock()
	if newlyLost {
		healthy := r.c.healthyCount()
		r.c.logf("fleet: node %s declared lost; %d healthy remain (min %d)", n.addr, healthy, r.c.opts.MinNodes)
		if healthy < r.c.opts.MinNodes {
			r.abort(&InsufficientFleetError{Healthy: healthy, Min: r.c.opts.MinNodes, Cause: cause})
		}
	}
}

// recovered resets a node's failure accounting after a successful
// dispatch; a node that had been declared lost rejoins the healthy set.
func (n *node) recovered() {
	n.mu.Lock()
	n.consecutive = 0
	n.lost = false
	n.state.Set(nodeHealthy)
	n.mu.Unlock()
}

// quarantine sits the node out with exponential backoff, then probes
// /readyz until the node answers ready (re-admission) or the run ends.
// Returns false when the run is over.
func (r *run) quarantine(n *node) bool {
	n.mu.Lock()
	n.quarantines++
	attempt := n.quarantines
	if !n.lost {
		n.state.Set(nodeQuarantined)
	}
	n.mu.Unlock()
	r.c.reg.Counter(telemetry.Label(MetricNodeQuarantines, "node", n.addr)).Inc()

	backoff := r.c.opts.QuarantineBase
	for i := 1; i < attempt && backoff < r.c.opts.QuarantineMax; i++ {
		backoff *= 2
	}
	if backoff > r.c.opts.QuarantineMax {
		backoff = r.c.opts.QuarantineMax
	}
	for {
		select {
		case <-r.ctx.Done():
			return false
		case <-time.After(backoff):
		}
		r.mu.Lock()
		over := r.finishedLocked()
		r.mu.Unlock()
		if over {
			return false
		}
		probeCtx, cancel := context.WithTimeout(r.ctx, 5*time.Second)
		err := n.cli.Ready(probeCtx)
		cancel()
		if err == nil {
			n.mu.Lock()
			if !n.lost {
				n.state.Set(nodeHealthy)
			}
			n.mu.Unlock()
			r.c.logf("fleet: node %s re-admitted after readiness probe", n.addr)
			return true
		}
		r.c.logf("fleet: node %s re-admission probe failed: %v", n.addr, err)
		r.nodeStruck(n, err)
		backoff *= 2
		if backoff > r.c.opts.QuarantineMax {
			backoff = r.c.opts.QuarantineMax
		}
	}
}
