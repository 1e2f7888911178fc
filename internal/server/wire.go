// Package server implements the GoldenEye campaign service: a long-running
// HTTP/JSON daemon that accepts fault-injection campaign jobs, schedules
// them on the parallel/batched campaign engine, streams progress over SSE,
// and serves identical resubmissions from a content-addressed result cache.
//
// The service is the network boundary over the existing engine — it adds
// no new campaign semantics. A job is a CampaignConfig plus a model-zoo
// reference; the daemon resolves the model and evaluation pool, runs
// RunCampaignParallel under the job's cancellable context, and the final
// CampaignReport is bit-identical to a local run with the same seed and
// worker count (see the remote-vs-local equivalence test).
//
// Lifecycle: jobs enter a bounded queue drained by a fixed worker pool;
// a full queue answers 429 with Retry-After instead of buffering without
// bound. Jobs can be cancelled at any point through the campaign engine's
// context machinery, and Shutdown drains running jobs before returning so
// a SIGTERM never discards work. Completed results persist through
// internal/checkpoint keyed by the experiment sweeps' CellHash, so a
// restarted daemon still answers repeat jobs from cache.
//
// With Options.Executor set, jobs run elsewhere — the fleet coordinator
// shards them across daemons — and the rest of the service is unchanged.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/models"
)

// SchemaVersion is the job-submission schema version. Decoding rejects
// documents stamped with a newer version, so a daemon never silently
// misreads a job from a newer client; the nested campaign configuration
// carries its own version (goldeneye.ConfigSchemaVersion).
const SchemaVersion = 1

// DefaultSamples is the evaluation-pool size a job gets when its spec
// leaves Samples unset (the CLI's long-standing default).
const DefaultSamples = 300

// JobSpec is one campaign job submission: the campaign configuration plus
// the model-zoo reference the daemon resolves into a simulator and
// evaluation pool. The pool itself never travels — both sides derive it
// deterministically from the model's validation set.
type JobSpec struct {
	// Version is the submission schema version (0 means the current one).
	Version int `json:"version,omitempty"`

	// Model names the zoo model the campaign runs against.
	Model string `json:"model"`

	// Samples is the evaluation-pool size, capped at the model's
	// validation set (0 = DefaultSamples).
	Samples int `json:"samples,omitempty"`

	// EvalBatch is the pool's accuracy-evaluation batch geometry (0 = the
	// package default).
	EvalBatch int `json:"eval_batch,omitempty"`

	// Workers is the campaign's parallel worker count (0 = the daemon's
	// configured default). Worker count joins the cache key: Welford merge
	// order depends on it, so reports are bit-identical only at equal
	// worker counts.
	Workers int `json:"workers,omitempty"`

	// DeadlineSeconds bounds the job's execution time (0 = unbounded). The
	// clock starts when a worker picks the job up, not while it queues. A
	// campaign still running at the deadline is stopped at the next
	// injection boundary and the job completes with the partial report
	// (Interrupted set) rather than hanging a worker; partial reports are
	// never cached. The deadline is not part of the cache key: only
	// complete reports are cached, and those are deadline-independent.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`

	// Campaign is the campaign configuration proper, in its versioned wire
	// encoding. Layer may be -1 to select the model's default injection
	// layer server-side.
	Campaign goldeneye.CampaignConfig `json:"campaign"`
}

// Deadline returns the spec's per-job execution bound, 0 when unbounded.
func (s *JobSpec) Deadline() time.Duration {
	return time.Duration(s.DeadlineSeconds * float64(time.Second))
}

// Validate checks a decoded submission against the rules the daemon can
// enforce without loading the model: the job's own fields, then the
// campaign's model-independent rules (goldeneye.CampaignConfig.Validate,
// with "Campaign." prefixed to the field), then the campaign rules that
// depend on the job (layer sentinel, batch against the pool, traces).
// Violations come back as *goldeneye.ConfigError, which handlers map to
// 400.
func (s *JobSpec) Validate() error {
	if s.Version > SchemaVersion {
		return fmt.Errorf("server: job schema v%d is newer than supported v%d", s.Version, SchemaVersion)
	}
	if s.Model == "" {
		return &goldeneye.ConfigError{Field: "Model", Reason: "job needs a model name"}
	}
	if !slices.Contains(models.Names(), s.Model) {
		return &goldeneye.ConfigError{Field: "Model",
			Reason: fmt.Sprintf("unknown model %q (want one of %v)", s.Model, models.Names())}
	}
	if s.Samples < 0 {
		return &goldeneye.ConfigError{Field: "Samples", Reason: fmt.Sprintf("sample count %d is negative", s.Samples)}
	}
	if s.EvalBatch < 0 {
		return &goldeneye.ConfigError{Field: "EvalBatch", Reason: fmt.Sprintf("eval batch %d is negative", s.EvalBatch)}
	}
	if s.Workers < 0 {
		return &goldeneye.ConfigError{Field: "Workers", Reason: fmt.Sprintf("worker count %d is negative", s.Workers)}
	}
	if s.DeadlineSeconds < 0 {
		return &goldeneye.ConfigError{Field: "DeadlineSeconds",
			Reason: fmt.Sprintf("deadline %v is negative", s.DeadlineSeconds)}
	}
	if s.EvalBatch > s.PoolSamples() {
		return &goldeneye.ConfigError{Field: "EvalBatch",
			Reason: fmt.Sprintf("eval batch %d exceeds the job's %d pool samples", s.EvalBatch, s.PoolSamples())}
	}
	c := &s.Campaign
	if err := c.Validate(); err != nil {
		var ce *goldeneye.ConfigError
		if errors.As(err, &ce) {
			ce.Field = "Campaign." + ce.Field
		}
		return err
	}
	// One shard is already a stride slice of the campaign; the fleet
	// provides the parallelism, so the per-node worker pool must not.
	if c.ShardCount > 1 && s.Workers > 1 {
		return &goldeneye.ConfigError{Field: "Workers",
			Reason: fmt.Sprintf("sharded jobs run serially (the fleet provides the parallelism), got workers=%d", s.Workers)}
	}
	if c.Layer < -1 {
		return &goldeneye.ConfigError{Field: "Campaign.Layer",
			Reason: fmt.Sprintf("layer %d (use -1 for the model's default injection layer)", c.Layer)}
	}
	// Weight-target campaigns degrade BatchSize to the serial path (the
	// engine packs 1 regardless), so only reject a batch that would run.
	if c.BatchSize > s.PoolSamples() && c.Target != inject.TargetWeight {
		return &goldeneye.ConfigError{Field: "Campaign.BatchSize",
			Reason: fmt.Sprintf("campaign batch %d exceeds the job's %d pool samples", c.BatchSize, s.PoolSamples())}
	}
	if c.KeepTrace {
		return &goldeneye.ConfigError{Field: "Campaign.KeepTrace",
			Reason: "per-injection traces are not served over the job API"}
	}
	return nil
}

// PoolSamples resolves the spec's requested evaluation-pool size (the
// model's validation set may cap it further at run time).
func (s *JobSpec) PoolSamples() int {
	if s.Samples > 0 {
		return s.Samples
	}
	return DefaultSamples
}

// DecodeJobSpec parses and validates one job submission. It is the
// daemon's only request decoder, hardened against hostile input: unknown
// top-level fields, trailing garbage, and schema violations are errors,
// and no input can panic it (FuzzJobConfigDecode pins this).
func DecodeJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("server: decode job: %w", err)
	}
	if dec.More() {
		return nil, errors.New("server: trailing data after job spec")
	}
	// The engine wants an explicit site and target; default unset ones to
	// the CLI's defaults so minimal submissions behave like the local tool.
	if spec.Campaign.Site == 0 {
		spec.Campaign.Site = inject.SiteValue
	}
	if spec.Campaign.Target == 0 {
		spec.Campaign.Target = inject.TargetNeuron
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle states. Queued and running jobs progress; the other three
// are terminal.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobStatus is the wire shape of a job's observable state: lifecycle,
// injection progress, and the live campaign counters the SSE stream
// renders. It doubles as the SSE "progress" event payload.
type JobStatus struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Model  string   `json:"model"`
	Cached bool     `json:"cached,omitempty"`

	// Seq is the job's monotonic progress sequence number: it advances on
	// every engine progress callback and once more at the terminal
	// transition. SSE frames carry it as their event id, so a reconnecting
	// client sends it back as Last-Event-ID and the stream resumes without
	// re-delivering snapshots it already saw.
	Seq int64 `json:"seq"`

	// Done/Total track executed injections (recorded + aborted) against
	// the campaign's planned count.
	Done  int `json:"done"`
	Total int `json:"total"`

	// Live campaign counters, read from the job's telemetry registry.
	Mismatches int64 `json:"mismatches,omitempty"`
	Detected   int64 `json:"detected,omitempty"`
	Aborted    int64 `json:"aborted,omitempty"`

	// PerDetector holds per-detector detection counts for jobs with a
	// detection pipeline armed.
	PerDetector map[string]int64 `json:"per_detector,omitempty"`

	// Calibration is the outcome of the campaign's calibration-cache
	// lookup ("hit", "miss" or "bypass"; see
	// goldeneye.MetricCampaignCalibrationCache), empty until the campaign
	// has set up and for jobs that ran no local campaign.
	Calibration string `json:"calibration,omitempty"`

	// Error carries the failure reason of a failed job.
	Error string `json:"error,omitempty"`

	// Degraded marks a job that completed on a degraded fleet (nodes
	// lost, survivors >= the coordinator's minimum). Single daemons never
	// set it; the omitempty keeps their encodings byte-identical.
	Degraded bool `json:"degraded,omitempty"`
}
