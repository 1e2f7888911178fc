// Package metrics implements the resiliency metrics of the paper's §IV-C:
// the classical mismatch count (faulty inference changes the predicted
// class) and the ΔLoss metric of Schorn et al. as adopted by the paper —
// the absolute difference of cross-entropy loss between faulty and
// fault-free inference — together with running statistics that expose each
// metric's convergence behaviour.
package metrics

import (
	"encoding/json"
	"math"
)

// MaxDeltaLoss caps a single injection's ΔLoss contribution. A fault that
// drives the network to NaN/Inf has unbounded cross-entropy; capping keeps
// campaign averages finite while still registering such faults as
// catastrophic. The value is ≈ ln(1e13), far beyond any non-corrupted loss.
const MaxDeltaLoss = 30.0

// DeltaLoss returns |faulty − clean| cross-entropy, capped at MaxDeltaLoss
// and treating non-finite faulty losses as the cap.
func DeltaLoss(clean, faulty float64) float64 {
	if math.IsNaN(faulty) || math.IsInf(faulty, 0) {
		return MaxDeltaLoss
	}
	d := math.Abs(faulty - clean)
	if d > MaxDeltaLoss {
		return MaxDeltaLoss
	}
	return d
}

// RunningStat accumulates a stream of observations with Welford's
// algorithm, exposing the running mean and its standard error — the basis
// for the metric-convergence comparison (ΔLoss converges faster than
// mismatch because it is continuous rather than binary, §IV-C).
type RunningStat struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the statistic.
func (s *RunningStat) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += float64(d * (x - s.mean))
}

// Merge folds another statistic into s (Chan et al.'s parallel variance
// combination), so sharded campaigns can aggregate worker results.
func (s *RunningStat) Merge(o RunningStat) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.mean += delta * float64(o.n) / float64(n)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.n = n
}

// runningStatJSON is the serialized shape of a RunningStat. The moments are
// encoded as float64; Go's encoding/json emits the shortest representation
// that round-trips bit-exactly, so a persisted statistic resumes with the
// identical accumulator state (the basis for checkpoint/resume determinism).
type runningStatJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// MarshalJSON serializes the accumulator state.
func (s RunningStat) MarshalJSON() ([]byte, error) {
	return json.Marshal(runningStatJSON{N: s.n, Mean: s.mean, M2: s.m2})
}

// UnmarshalJSON restores the accumulator state.
func (s *RunningStat) UnmarshalJSON(data []byte) error {
	var j runningStatJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	s.n, s.mean, s.m2 = j.N, j.Mean, j.M2
	return nil
}

// N returns the number of observations.
func (s *RunningStat) N() int { return s.n }

// Mean returns the running mean (0 before any observation).
func (s *RunningStat) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *RunningStat) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *RunningStat) StdDev() float64 { return math.Sqrt(s.Variance()) }

// SEM returns the standard error of the mean.
func (s *RunningStat) SEM() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// under the normal approximation.
func (s *RunningStat) CI95() float64 { return 1.96 * s.SEM() }

// RelativeCI returns CI95 normalized by |mean|; campaigns use it as the
// convergence criterion (smaller = more converged).
func (s *RunningStat) RelativeCI() float64 {
	if s.mean == 0 {
		return math.Inf(1)
	}
	return s.CI95() / math.Abs(s.mean)
}

// CampaignResult aggregates one injection campaign.
type CampaignResult struct {
	Injections int

	// Mismatches counts injections whose top-1 prediction differed from
	// the fault-free inference.
	Mismatches int

	// DeltaLoss accumulates the ΔLoss observations.
	DeltaLoss RunningStat

	// MismatchStat accumulates the binary mismatch observations, so both
	// metrics' convergence can be compared on equal footing.
	MismatchStat RunningStat

	// NonFinite counts injections that produced NaN/Inf activations at the
	// output (detected corruption).
	NonFinite int
}

// Record folds one injection outcome into the result.
func (c *CampaignResult) Record(mismatch bool, deltaLoss float64, nonFinite bool) {
	c.Injections++
	if mismatch {
		c.Mismatches++
		c.MismatchStat.Add(1)
	} else {
		c.MismatchStat.Add(0)
	}
	c.DeltaLoss.Add(deltaLoss)
	if nonFinite {
		c.NonFinite++
	}
}

// MismatchRate returns the fraction of injections that changed the
// prediction.
func (c *CampaignResult) MismatchRate() float64 {
	if c.Injections == 0 {
		return 0
	}
	return float64(c.Mismatches) / float64(c.Injections)
}

// MeanDeltaLoss returns the campaign's average ΔLoss.
func (c *CampaignResult) MeanDeltaLoss() float64 { return c.DeltaLoss.Mean() }

// Merge folds another campaign's aggregates into c.
func (c *CampaignResult) Merge(o CampaignResult) {
	c.Injections += o.Injections
	c.Mismatches += o.Mismatches
	c.NonFinite += o.NonFinite
	c.DeltaLoss.Merge(o.DeltaLoss)
	c.MismatchStat.Merge(o.MismatchStat)
}

// DetectorStats aggregates one detector's campaign-level performance: how
// many injections it flagged, how many of those the paired recovery policy
// restored, and its false-positive behaviour on the fault-free calibration
// pool (the "measured on fault-free runs" half of the protection table).
// The struct is shared by campaign reports, checkpoints, and resume state;
// the JSON encoding is stable so persisted cells resume bit-identically.
type DetectorStats struct {
	// Detections counts injections this detector flagged.
	Detections int `json:"detections"`

	// Recovered counts flagged injections whose recovery policy restored
	// the fault-free prediction.
	Recovered int `json:"recovered"`

	// FalsePositives counts fault-free pool inferences the armed detector
	// flagged during the campaign's post-calibration sweep.
	FalsePositives int `json:"false_positives"`

	// FaultFreeRuns is the number of fault-free inferences the
	// false-positive sweep observed (the FalsePositives denominator).
	FaultFreeRuns int `json:"fault_free_runs"`
}

// Coverage returns the fraction of injections this detector flagged.
func (d DetectorStats) Coverage(injections int) float64 {
	if injections == 0 {
		return 0
	}
	return float64(d.Detections) / float64(injections)
}

// FalsePositiveRate returns flagged fault-free inferences per fault-free
// inference observed.
func (d DetectorStats) FalsePositiveRate() float64 {
	if d.FaultFreeRuns == 0 {
		return 0
	}
	return float64(d.FalsePositives) / float64(d.FaultFreeRuns)
}
