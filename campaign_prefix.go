package goldeneye

import (
	"slices"

	"goldeneye/internal/inject"
	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// Clean-prefix reuse. A neuron fault at layer L cannot change any layer that
// runs before L's top-level block, so a campaign's calibration keeps, per
// pool sample, the fault-free input of that block — the cut — and every
// injected pass starts there. The armed clean sweep fills the cut table
// once per campaign, for every worker; an injected pass then costs the
// suffix only. docs/PERFORMANCE.md §9 has the cost model and memory bound.

// Outcomes of an injected pass's row, the outcome label of
// MetricCampaignPrefixRows.
const (
	prefixReused = iota // the row's pass started at its cut
	prefixFull          // the row's pass started at the network input
)

// cutBlock returns the top-level block whose input is cfg's cut, or 0 when
// reuse is off: the root is not a Sequential, the fault layer sits in
// top-level child 0 (the prefix is empty), or the target is a weight (the
// fault corrupts model state before the pass starts, so nothing bounds it
// to the suffix).
func (s *Simulator) cutBlock(cfg CampaignConfig) int {
	if s.root == nil || s.fullPassOnly || cfg.Target != inject.TargetNeuron {
		return 0
	}
	return s.blockOf[cfg.Layer]
}

// layoutCuts allocates c's cut table, pool samples × the input of top-level
// block, for the armed clean sweep to fill (see armedSlice); block 0 leaves
// reuse off and the table nil.
func (c *calibration) layoutCuts(s *Simulator, block int) {
	if block == 0 {
		return
	}
	n := c.geom.pool.Len()
	c.block = block
	c.cuts = tensor.New(append([]int{n}, s.blockShape[block][1:]...)...)
	c.fullPass = make([]bool, n)
}

// fromCut runs a pass from the cut to the logits on x, the cut rows of the
// pass's samples.
func (r *campaignRunner) fromCut(ctx *nn.Context, x *tensor.Tensor) *tensor.Tensor {
	root := r.sim.root
	return nn.ForwardRange(ctx, root, r.block, len(root.Children()), r.sim.blockStart[r.block], x)
}

// atCut reports whether a group's passes start at the cut: reuse is on and
// no sample of the group is marked full-pass. It counts the group's rows
// in MetricCampaignPrefixRows either way.
func (r *campaignRunner) atCut(samples []int) bool {
	outcome := prefixReused
	if r.cuts == nil || slices.ContainsFunc(samples, func(s int) bool { return r.fullPass[s] }) {
		outcome = prefixFull
	}
	r.countPrefix(outcome, len(samples))
	return outcome == prefixReused
}

// groupPass returns how a group's passes run: from its samples' cuts, which
// the runner's scratch gathers from the cut table so a pass that writes its
// input in place cannot corrupt the table, or else from the network input,
// which input builds. Every pass emulates per sample, so a cut does not
// depend on the slice of the sweep that computed it, and groups of any
// size — tail groups and per-sample panic re-runs included — read the
// table.
func (r *campaignRunner) groupPass(samples []int, input func() *tensor.Tensor) func(*nn.HookSet) *tensor.Tensor {
	if r.atCut(samples) {
		return func(h *nn.HookSet) *tensor.Tensor {
			return r.fromCut(nn.NewContext(r.withTiming(h)), r.scratch.gather(r.cuts, samples))
		}
	}
	x := input()
	return func(h *nn.HookSet) *tensor.Tensor {
		return nn.Forward(nn.NewContext(r.withTiming(h)), r.sim.model, x)
	}
}

// countPrefix adds n rows to one outcome of MetricCampaignPrefixRows; a
// no-op without telemetry.
func (r *campaignRunner) countPrefix(outcome, n int) {
	if c := r.prefixRows[outcome]; c != nil {
		c.Add(int64(n))
	}
}
