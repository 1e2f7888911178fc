package goldeneye

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"goldeneye/internal/inject"
	"goldeneye/internal/sampling"
)

// Per-index dispatch flags of a campaignSelection.
const (
	selExecute = 1 << iota // kept by the selection hash: runs a forward pass
	selPruned              // analytically masked: counted without inference
)

// campaignSelection is a sampled campaign's precomputed per-index dispatch:
// for every global injection index, the stratum its first flip classifies
// into and whether the index executes, is analytically pruned, or is skipped
// by the selection hash. It is a pure function of (config, seed, ranger
// bounds), so every execution path — serial, batched, parallel, sharded,
// fleet — computes the identical selection and the determinism contract of
// exhaustive campaigns carries over.
type campaignSelection struct {
	space   *sampling.Space
	plan    *sampling.Plan
	stratum []uint16
	flags   []uint8
}

// buildSelection classifies the campaign's full fault space and applies the
// sampling plan. It draws a fresh copy of the deterministic fault sequence
// (no forward passes). Returns nil when the campaign is exhaustive.
func (c *calibration) buildSelection() *campaignSelection {
	plan := c.cfg.Sampling
	if !plan.Active() {
		return nil
	}
	sel := &campaignSelection{
		space:   sampling.NewSpace(c.geom.inj, c.cfg.Site),
		plan:    plan,
		stratum: make([]uint16, c.cfg.Injections),
		flags:   make([]uint8, c.cfg.Injections),
	}
	// Pruning threshold: the target layer's calibrated activation bounds.
	var mask uint64
	if plan.Prune && c.ranger != nil {
		if lo, hi, ok := c.ranger.Bounds(c.cfg.Layer); ok {
			mask = sampling.PruneMask(c.geom.inj, float64(lo), float64(hi), plan.PruneEpsilon())
		}
	}
	drawer := newFaultDrawer(&c.cfg, c.geom)
	faults := make([]inject.Fault, c.geom.flips)
	for i := 0; i < c.cfg.Injections; i++ {
		drawer.nextInto(faults)
		st := sel.space.StratumOf(faults[0])
		sel.stratum[i] = uint16(st)
		switch {
		case mask != 0 && sampling.AllPrunable(faults, mask):
			sel.flags[i] = selPruned
		case sampling.Selected(c.cfg.Seed, i, plan.FractionFor(sel.space.Name(st))):
			sel.flags[i] = selExecute
		}
	}
	return sel
}

// executed reports whether global index i runs a forward pass. Nil-safe:
// without a selection every index executes.
func (sel *campaignSelection) executed(i int) bool {
	return sel == nil || sel.flags[i]&selExecute != 0
}

// emptyReport returns a zeroed estimator report over the selection's strata.
func (sel *campaignSelection) emptyReport() *sampling.Report {
	return sel.space.NewReport()
}

// account folds the dispatch of the owned indices first, first+stride, …
// below hi into rep: Drawn for every owned index, plus Pruned/Skipped for
// the ones that never execute. Executed/Aborted arrive later through
// observe, so a fully executed report satisfies Drawn = Pruned + Skipped +
// Executed + Aborted per stratum; a sequentially-stopped (or interrupted)
// one keeps Drawn above that sum — the selected-but-unexecuted mass is
// what holds the finite-population correction below one.
func (sel *campaignSelection) account(rep *sampling.Report, first, hi, stride int) {
	for i := first; i < hi; i += stride {
		s := &rep.Strata[sel.stratum[i]]
		s.Drawn++
		switch {
		case sel.flags[i]&selPruned != 0:
			s.Pruned++
		case sel.flags[i]&selExecute == 0:
			s.Skipped++
		}
	}
}

// observe folds one executed injection's outcome into rep's stratum
// moments. Aborted injections are counted but excluded from the moments,
// mirroring the campaign aggregates.
func (sel *campaignSelection) observe(rep *sampling.Report, i int, out InjectionOutcome) {
	s := &rep.Strata[sel.stratum[i]]
	if out.Aborted {
		s.Aborted++
		return
	}
	s.Executed++
	if out.Mismatch {
		s.Mismatch.Add(1)
	} else {
		s.Mismatch.Add(0)
	}
	s.DeltaLoss.Add(out.DeltaLoss)
}

// stopBounds returns the campaign's review boundaries: the sequence of
// global injection indices at which a sequentially-stopped campaign reviews
// its confidence interval, always ending at injections. Without a stopping
// target the campaign is a single window.
func stopBounds(plan *sampling.Plan, injections int) []int {
	if plan == nil || plan.TargetCI <= 0 {
		return []int{injections}
	}
	var bounds []int
	for b := plan.Interval(); b < injections; b += plan.Interval() {
		bounds = append(bounds, b)
	}
	return append(bounds, injections)
}

// ciBarrier synchronizes a campaign's sequential-stopping reviews: the
// engine's workers (one, for a serial run) run their review windows in
// lockstep, and the last worker to finish each round runs the stopping
// check over every worker's estimator state while the others are parked.
// Workers that exit early — error, cancellation, abort threshold — must
// call leave exactly once so the remaining workers' rounds still complete.
type ciBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	members int
	arrived int
	round   int
	stopAt  int
	check   func(round int) int
}

// newCIBarrier builds a barrier over members workers. check runs once per
// round with every member's window finished and returns the boundary to stop
// at (0 = continue); its result is sticky.
func newCIBarrier(members int, check func(round int) int) *ciBarrier {
	b := &ciBarrier{members: members, check: check}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until every live worker has finished round r and returns the
// (possibly newly decided) stop boundary, 0 meaning keep going.
func (b *ciBarrier) await(r int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopAt > 0 {
		return b.stopAt
	}
	b.arrived++
	if b.arrived >= b.members {
		b.finishRound()
		return b.stopAt
	}
	for b.round <= r && b.stopAt == 0 {
		b.cond.Wait()
	}
	return b.stopAt
}

// finishRound runs the stopping check and releases the round. Caller holds mu.
func (b *ciBarrier) finishRound() {
	b.stopAt = b.check(b.round)
	b.arrived = 0
	b.round++
	b.cond.Broadcast()
}

// leave removes one worker from the barrier. If the remaining workers were
// all waiting on the departing one, the round completes without it.
func (b *ciBarrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.members--
	if b.members > 0 && b.arrived >= b.members {
		b.finishRound()
	}
	b.cond.Broadcast()
}

// stopIndex returns the decided stop boundary (0 when the campaign ran its
// full selection).
func (b *ciBarrier) stopIndex() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stopAt
}

// ParseSamplingPlan assembles and validates a sampling plan from CLI-style
// inputs: a default fraction, an optional "name=fraction,..." per-stratum
// override list, the pruning switch with its tolerance (0 = the plan's
// default), and a sequential-stopping CI target. Returns nil (no plan)
// when the inputs describe an exhaustive campaign.
func ParseSamplingPlan(fraction float64, strata string, prune bool, pruneEps, targetCI float64) (*sampling.Plan, error) {
	plan := &sampling.Plan{Fraction: fraction, Prune: prune, Epsilon: pruneEps, TargetCI: targetCI}
	if strata != "" {
		plan.Strata = make(map[string]float64)
		for _, part := range strings.Split(strata, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) != 2 || kv[0] == "" {
				return nil, fmt.Errorf("goldeneye: stratum override %q is not name=fraction", part)
			}
			f, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return nil, fmt.Errorf("goldeneye: stratum override %q: %v", part, err)
			}
			plan.Strata[kv[0]] = f
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if !plan.Active() {
		return nil, nil
	}
	return plan, nil
}
