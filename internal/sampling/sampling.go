// Package sampling turns exhaustive fault-injection campaigns into
// statistically-driven estimators. It provides the three cooperating pieces
// of a "smart campaign":
//
//   - Fault-space structure: the injection space is partitioned into strata
//     (bit-role equivalence classes of the injection format — sign,
//     exponent, mantissa, … — or a single stratum for metadata and
//     accumulator sites), so sampling effort can be steered toward the bit
//     classes that matter.
//   - Importance sampling: a deterministic per-index selection hash keeps a
//     configurable fraction of each stratum, and the per-stratum Welford
//     moments combine into an unbiased stratified estimate of the campaign's
//     SDC (mismatch) rate with a normal-approximation confidence interval.
//   - Analytic pruning: bit positions whose worst-case value perturbation is
//     negligible against the layer's calibrated activation range are
//     pre-classified as masked and counted analytically, without a forward
//     pass (see PruneMask).
//
// Everything in this package is deterministic and order-stable: the same
// plan, seed, and fault sequence produce the same selection on every
// execution path (serial, batched, parallel, remote, fleet), per-stratum
// moments merge with the same Welford combination the campaign aggregates
// use, and the JSON encodings round-trip bit-exactly.
package sampling

import (
	"fmt"
	"math"
	"sort"

	"goldeneye/internal/inject"
	"goldeneye/internal/metrics"
	"goldeneye/internal/numfmt"
)

// DefaultCheckEvery is the sequential-stopping review interval (in global
// injection indices) used when a plan does not set CheckEvery.
const DefaultCheckEvery = 256

// DefaultEpsilon is the pruning tolerance used when a plan does not set
// Epsilon: a bit is prunable when its worst-case decode perturbation is at
// most Epsilon times the layer's calibrated activation magnitude.
const DefaultEpsilon = 1e-3

// Plan configures a sampled campaign. The zero value is invalid; a plan
// must carry a Fraction in (0, 1]. A plan with Fraction 1 and no other
// feature enabled is Inert — campaigns treat it exactly like no plan at
// all, so fraction-1.0 reports stay byte-identical to exhaustive ones.
//
// Plans are part of the campaign wire schema (v4); the JSON encoding is
// byte-stable (map keys marshal sorted).
type Plan struct {
	// Fraction is the default sampled fraction of every stratum, in
	// (0, 1]. 1 means exhaustive.
	Fraction float64 `json:"fraction"`

	// Strata overrides Fraction per stratum name (e.g. "sign": 1,
	// "mantissa": 0.05). Unknown names are legal — they simply match no
	// stratum of the campaign's fault space.
	Strata map[string]float64 `json:"strata,omitempty"`

	// Prune enables analytic fault-space pruning: injections whose every
	// flipped bit is provably negligible against the layer's calibrated
	// activation range are counted as masked without a forward pass.
	// Requires ranger calibration (the campaign's UseRanger bounds) and a
	// metadata-free injection format of at most 16 bits.
	Prune bool `json:"prune,omitempty"`

	// Epsilon is the pruning tolerance (0 = DefaultEpsilon): a bit is
	// prunable when its worst-case decode perturbation is at most
	// Epsilon·max(|lo|, |hi|) of the layer's calibrated bounds.
	Epsilon float64 `json:"epsilon,omitempty"`

	// TargetCI, when positive, enables sequential stopping: the campaign
	// reviews the estimate's 95% confidence half-width every CheckEvery
	// global injection indices and stops at the first review point where
	// it is at most TargetCI.
	TargetCI float64 `json:"target_ci,omitempty"`

	// CheckEvery is the sequential-stopping review interval in global
	// injection indices (0 = DefaultCheckEvery).
	CheckEvery int `json:"check_every,omitempty"`
}

// Validate checks the plan's parameters.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if !(p.Fraction > 0 && p.Fraction <= 1) {
		return fmt.Errorf("sampling: fraction %v outside (0, 1]", p.Fraction)
	}
	for name, f := range p.Strata {
		if !(f > 0 && f <= 1) {
			return fmt.Errorf("sampling: stratum %q fraction %v outside (0, 1]", name, f)
		}
	}
	if p.Epsilon < 0 {
		return fmt.Errorf("sampling: negative pruning epsilon %v", p.Epsilon)
	}
	if p.TargetCI < 0 {
		return fmt.Errorf("sampling: negative target CI %v", p.TargetCI)
	}
	if p.CheckEvery < 0 {
		return fmt.Errorf("sampling: negative check interval %d", p.CheckEvery)
	}
	return nil
}

// Inert reports whether the plan changes nothing relative to an exhaustive
// campaign: fraction 1, no per-stratum overrides, no pruning, no stopping
// target. Campaigns normalize inert plans to nil, so their reports — wire
// bytes included — stay byte-identical to pre-sampling ones.
func (p *Plan) Inert() bool {
	return p.Fraction >= 1 && len(p.Strata) == 0 && !p.Prune && p.TargetCI == 0
}

// Active reports whether p is a non-nil, non-inert plan.
func (p *Plan) Active() bool { return p != nil && !p.Inert() }

// FractionFor returns the sampled fraction of the named stratum.
func (p *Plan) FractionFor(name string) float64 {
	if f, ok := p.Strata[name]; ok {
		return f
	}
	return p.Fraction
}

// Interval returns the sequential-stopping review interval.
func (p *Plan) Interval() int {
	if p.CheckEvery > 0 {
		return p.CheckEvery
	}
	return DefaultCheckEvery
}

// PruneEpsilon returns the pruning tolerance.
func (p *Plan) PruneEpsilon() float64 {
	if p.Epsilon > 0 {
		return p.Epsilon
	}
	return DefaultEpsilon
}

// BitRole names the architectural role of bit position `bit` within a
// format's per-element encoding: "sign", "exponent", "mantissa" for
// FP-family formats, "sign"/"mantissa" for BFP (the shared exponent lives
// in metadata), "sign"/"integer"/"fraction" for fixed point, and "code" for
// formats whose encodings have no positional structure (posit, LNS, LUT).
// These roles are the strata of a value-site fault space.
func BitRole(format numfmt.Format, bit int) string {
	switch f := format.(type) {
	case *numfmt.FP:
		switch {
		case bit == f.BitWidth()-1:
			return "sign"
		case bit >= f.MantBits():
			return "exponent"
		default:
			return "mantissa"
		}
	case *numfmt.AFP:
		switch {
		case bit == f.BitWidth()-1:
			return "sign"
		case bit >= f.MantBits():
			return "exponent"
		default:
			return "mantissa"
		}
	case *numfmt.BFP:
		if bit == f.BitWidth()-1 {
			return "sign"
		}
		return "mantissa"
	case *numfmt.FxP:
		switch {
		case bit == f.BitWidth()-1:
			return "sign"
		case bit < f.Radix():
			return "fraction"
		default:
			return "integer"
		}
	default:
		return "code"
	}
}

// Space is a campaign's stratified fault space: the ordered list of strata
// and the bit-position → stratum mapping faults classify through. Value-site
// spaces stratify by bit role (strata ordered by first appearance from bit
// 0 upward); metadata and accumulator sites are single-stratum spaces (their
// registers have no per-campaign positional roles worth splitting).
type Space struct {
	names []string
	byBit []int
}

// NewSpace builds the fault space of a campaign injecting into format at
// the given site. format may be nil only for accumulator sites (a native
// float32 register).
func NewSpace(format numfmt.Format, site inject.Site) *Space {
	switch site {
	case inject.SiteMetadata:
		return &Space{names: []string{"metadata"}}
	case inject.SiteAccum:
		return &Space{names: []string{"accum"}}
	}
	if format == nil {
		return &Space{names: []string{"value"}}
	}
	sp := &Space{byBit: make([]int, format.BitWidth())}
	index := make(map[string]int)
	for bit := 0; bit < format.BitWidth(); bit++ {
		role := BitRole(format, bit)
		i, ok := index[role]
		if !ok {
			i = len(sp.names)
			index[role] = i
			sp.names = append(sp.names, role)
		}
		sp.byBit[bit] = i
	}
	return sp
}

// Strata returns the stratum names in index order.
func (sp *Space) Strata() []string { return sp.names }

// Name returns the i-th stratum's name.
func (sp *Space) Name(i int) string { return sp.names[i] }

// StratumOf classifies one fault: the stratum of its flipped bit position
// for bit-structured spaces, stratum 0 for single-stratum spaces.
func (sp *Space) StratumOf(f inject.Fault) int {
	if sp.byBit == nil {
		return 0
	}
	if f.Bit < 0 || f.Bit >= len(sp.byBit) {
		return 0
	}
	return sp.byBit[f.Bit]
}

// NewReport returns an empty estimator report with one zeroed stratum per
// stratum of the space, in space order.
func (sp *Space) NewReport() *Report {
	r := &Report{Strata: make([]Stratum, len(sp.names))}
	for i, name := range sp.names {
		r.Strata[i].Name = name
	}
	return r
}

// Selected reports whether injection index is kept by a sampled campaign at
// the given per-stratum fraction. The decision is a pure hash of
// (seed, index) — independent of the fault-drawing RNG stream and of
// execution order — so every path (serial, parallel, sharded, resumed)
// selects the identical subset.
func Selected(seed uint64, index int, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	if fraction <= 0 {
		return false
	}
	x := seed ^ (0x9e3779b97f4a7c15 * (uint64(index) + 1))
	// splitmix64 finalizer: avalanches the seed/index combination so
	// consecutive indices decorrelate.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53)
	return u < fraction
}

// Stratum is one stratum's slice of the estimator state: how the stratum's
// drawn fault-space mass was dispatched (pruned analytically, skipped by
// the sampler, executed, or aborted) and the Welford moments of the
// executed injections' outcomes. Counts and moments cover exactly the
// injection indices the producing run owned, so shard reports merge by
// summation.
type Stratum struct {
	Name string `json:"name"`

	// Drawn counts owned fault-space indices classified into this stratum;
	// it always equals Pruned + Skipped + Executed + Aborted.
	Drawn int `json:"drawn"`

	// Pruned counts injections classified as analytically masked (no
	// forward pass; they contribute zero mismatch and zero ΔLoss mass).
	Pruned int `json:"pruned,omitempty"`

	// Skipped counts injections the selection hash left out.
	Skipped int `json:"skipped,omitempty"`

	// Executed counts injections that ran and were observed.
	Executed int `json:"executed"`

	// Aborted counts selected injections whose inference aborted; like the
	// campaign aggregates, the estimator excludes them.
	Aborted int `json:"aborted,omitempty"`

	// Mismatch and DeltaLoss are the Welford moments of the executed
	// injections' outcomes (mismatch as a 0/1 observation).
	Mismatch  metrics.RunningStat `json:"mismatch"`
	DeltaLoss metrics.RunningStat `json:"delta_loss"`
}

// unpruned is the stratum's non-masked fault-space mass — the population
// its executed sample represents.
func (s *Stratum) unpruned() int { return s.Drawn - s.Pruned }

// Report is the stratified estimator carried by a sampled campaign's
// report: per-stratum accounting plus the derived SDC-rate estimate and
// confidence interval. The derived quantities are methods, not fields, so
// they are always consistent with the counts (and so the wire encoding
// never has to carry non-finite JSON values).
type Report struct {
	Strata []Stratum `json:"strata"`

	// StopIndex is the global injection index at which sequential stopping
	// ended the campaign (a CheckEvery boundary), or 0 when the campaign
	// ran through its full selection.
	StopIndex int `json:"stop_index,omitempty"`
}

// stratumIndex returns the position of the named stratum, or -1.
func (r *Report) stratumIndex(name string) int {
	for i := range r.Strata {
		if r.Strata[i].Name == name {
			return i
		}
	}
	return -1
}

// FaultSpace returns the fault-space mass this report covers: the sum of
// drawn counts across strata. For an unsharded campaign that is the full
// injection count; for one shard it is the shard's stride-slice size, so
// merged shard reports sum back to the campaign total.
func (r *Report) FaultSpace() int {
	n := 0
	for i := range r.Strata {
		n += r.Strata[i].Drawn
	}
	return n
}

// ExecutedTotal returns the number of injections that ran and were
// observed.
func (r *Report) ExecutedTotal() int {
	n := 0
	for i := range r.Strata {
		n += r.Strata[i].Executed
	}
	return n
}

// AbortedTotal returns the number of selected injections whose inference
// aborted; they execute but contribute no observations to the moments.
func (r *Report) AbortedTotal() int {
	n := 0
	for i := range r.Strata {
		n += r.Strata[i].Aborted
	}
	return n
}

// PrunedTotal returns the number of injections counted analytically.
func (r *Report) PrunedTotal() int {
	n := 0
	for i := range r.Strata {
		n += r.Strata[i].Pruned
	}
	return n
}

// SkippedTotal returns the number of injections the selection hash left
// out.
func (r *Report) SkippedTotal() int {
	n := 0
	for i := range r.Strata {
		n += r.Strata[i].Skipped
	}
	return n
}

// SDCRate returns the stratified estimate of the campaign's mismatch (SDC)
// rate over the covered fault space: each stratum contributes its observed
// mismatch mean weighted by its unpruned mass, and pruned mass contributes
// zero (that is what pruning proved). The estimator is unbiased within each
// stratum under the uniform selection hash.
func (r *Report) SDCRate() float64 {
	return r.weightedMean(func(s *Stratum) float64 { return s.Mismatch.Mean() })
}

// MeanDeltaLoss returns the stratified estimate of the campaign's mean
// ΔLoss over the covered fault space, with pruned mass contributing zero.
func (r *Report) MeanDeltaLoss() float64 {
	return r.weightedMean(func(s *Stratum) float64 { return s.DeltaLoss.Mean() })
}

func (r *Report) weightedMean(mean func(*Stratum) float64) float64 {
	d := r.FaultSpace()
	if d == 0 {
		return 0
	}
	sum := 0.0
	for i := range r.Strata {
		s := &r.Strata[i]
		if u := s.unpruned(); u > 0 && s.Executed > 0 {
			sum += float64(float64(u) * mean(s))
		}
	}
	return sum / float64(d)
}

// smallSampleN is the executed-count threshold below which a stratum's
// variance is floored at the worst-case Bernoulli variance (0.25): tiny
// samples routinely observe zero variance, and an honest interval must not
// collapse on them.
const smallSampleN = 8

// Variance returns the variance of the SDCRate estimator under stratified
// sampling: Σ (Uₛ/D)² · vₛ/nₛ · FPC, where Uₛ is the stratum's unpruned
// mass, D the covered fault space, vₛ the stratum's sample variance
// (floored at 0.25 below smallSampleN observations), nₛ its executed
// count, and FPC the finite-population correction (Uₛ−nₛ)/(Uₛ−1) that
// drives the interval to zero when a stratum is sampled exhaustively. A
// stratum with unpruned mass but no observations yet makes the variance
// +Inf — the interval honestly reports that part of the space is unmeasured.
func (r *Report) Variance() float64 {
	d := r.FaultSpace()
	if d == 0 {
		return 0
	}
	v := 0.0
	for i := range r.Strata {
		s := &r.Strata[i]
		u := s.unpruned()
		if u <= 0 {
			continue
		}
		n := s.Executed
		if n == 0 {
			return math.Inf(1)
		}
		sv := s.Mismatch.Variance()
		if n < smallSampleN && sv < 0.25 {
			sv = 0.25
		}
		fpc := 1.0
		if n >= u {
			fpc = 0
		} else if u > 1 {
			fpc = float64(u-n) / float64(u-1)
		}
		w := float64(u) / float64(d)
		v += float64(w * w * sv / float64(n) * fpc)
	}
	return v
}

// CIHalfWidth returns the half-width of the 95% confidence interval of
// SDCRate under the normal approximation (+Inf while any unpruned stratum
// is unobserved).
func (r *Report) CIHalfWidth() float64 {
	return 1.96 * math.Sqrt(r.Variance())
}

// Merge folds another shard's estimator state into r, summing counts and
// combining the Welford moments in call order — the same merge-order
// contract the campaign's aggregate moments follow, so shard reports merged
// in shard-index order are bit-identical to the single-node parallel run at
// workers = shard count. The two reports must describe the same strata in
// the same order.
func (r *Report) Merge(o *Report) error {
	if o == nil {
		return nil
	}
	if len(r.Strata) != len(o.Strata) {
		return fmt.Errorf("sampling: merging reports with %d vs %d strata", len(r.Strata), len(o.Strata))
	}
	for i := range r.Strata {
		s, os := &r.Strata[i], &o.Strata[i]
		if s.Name != os.Name {
			return fmt.Errorf("sampling: stratum %d is %q in one report, %q in the other", i, s.Name, os.Name)
		}
		s.Drawn += os.Drawn
		s.Pruned += os.Pruned
		s.Skipped += os.Skipped
		s.Executed += os.Executed
		s.Aborted += os.Aborted
		s.Mismatch.Merge(os.Mismatch)
		s.DeltaLoss.Merge(os.DeltaLoss)
	}
	if o.StopIndex > r.StopIndex {
		r.StopIndex = o.StopIndex
	}
	return nil
}

// Clone returns a deep copy of the report.
func (r *Report) Clone() *Report {
	if r == nil {
		return nil
	}
	c := &Report{Strata: make([]Stratum, len(r.Strata)), StopIndex: r.StopIndex}
	copy(c.Strata, r.Strata)
	return c
}

// NeymanPlan builds a rate-steered sampling plan from pilot observations:
// per-stratum fault-space sizes and observed mismatch rates. Allocation
// follows Neyman's rule — sampling effort proportional to Nₛ·σₛ, with
// σₛ = √(pₛ(1−pₛ)) floored so no stratum starves — scaled so the expected
// executed count is budget times the total fault space, and every fraction
// clamped to (0, 1]. This is how a cheap pilot campaign (for example
// exper.BitSensitivity rows) steers a production campaign's budget toward
// the vulnerable bit classes.
func NeymanPlan(budget float64, sizes map[string]int, rates map[string]float64) *Plan {
	if budget <= 0 {
		budget = 0.1
	}
	if budget > 1 {
		budget = 1
	}
	names := make([]string, 0, len(sizes))
	total := 0
	for name, n := range sizes {
		if n > 0 {
			names = append(names, name)
			total += n
		}
	}
	sort.Strings(names)
	if total == 0 {
		return &Plan{Fraction: budget}
	}
	// σ floor: even a stratum whose pilot saw zero mismatches keeps a
	// share of the budget (its pilot may simply have been too small).
	const sigmaFloor = 0.05
	weight := make(map[string]float64, len(names))
	wsum := 0.0
	for _, name := range names {
		p := rates[name]
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		sigma := math.Sqrt(p * (1 - p))
		if sigma < sigmaFloor {
			sigma = sigmaFloor
		}
		w := float64(float64(sizes[name]) * sigma)
		weight[name] = w
		wsum += w
	}
	target := budget * float64(total)
	plan := &Plan{Fraction: budget, Strata: make(map[string]float64, len(names))}
	for _, name := range names {
		// Desired executed count for the stratum, as a fraction of it.
		f := target * weight[name] / wsum / float64(sizes[name])
		if f > 1 {
			f = 1
		}
		if f < 1e-4 {
			f = 1e-4
		}
		plan.Strata[name] = f
	}
	return plan
}
