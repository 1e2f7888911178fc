package goldeneye

import (
	"slices"

	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// Clean-prefix reuse. A neuron fault at layer L cannot change any layer that
// runs before L's top-level block, so a campaign runner keeps, per pool
// sample, the fault-free input of that block — the cut — and starts every
// injected pass there. A sample's first use costs one prefix pass plus the
// suffix, which together are one full pass; every later use costs the
// suffix only. docs/PERFORMANCE.md §9 has the cost model and memory bound.

// cutState is one pool sample's memo state.
type cutState uint8

const (
	cutMissing cutState = iota // no prefix pass has covered the sample yet
	cutReady                   // the memo holds the sample's cut
	cutFull                    // its clean prefix raised a detector event: full passes only
)

// Outcomes of an injected pass's row, the outcome label of
// MetricCampaignPrefixRows.
const (
	prefixComputed = iota // the row's cut was computed for its own group
	prefixReused          // the row's cut came from the memo
	prefixFull            // the row's pass started at the network input
)

// prefixMemo is a campaign runner's per-sample memo of the cut. Like the
// runner's scratch it is single-threaded: parallel workers each own one.
type prefixMemo struct {
	root  *nn.Sequential
	block int // the top-level child suffix passes start at
	first int // visit index of that child's first layer

	state   []cutState // per pool sample
	missing []int      // scratch: the group's samples without a cut

	// Arena-backed storage, allocated by the first prefix pass (it fixes
	// the cut's shape): the memo, pool × row floats, viewed as all; and the
	// suffix input, batch × row floats, wrapped once per row count.
	row   int
	batch int
	buf   []float32
	all   *tensor.Tensor
	in    []float32
	views map[int]*tensor.Tensor
}

// newPrefixMemo returns the runner's memo, or nil when reuse is off: the
// root is not a Sequential, the fault layer sits in top-level child 0 (the
// prefix is empty), or the target is a weight (the fault corrupts model
// state before the pass starts, so nothing bounds it to the suffix).
func (r *campaignRunner) newPrefixMemo() *prefixMemo {
	s := r.sim
	if s.root == nil || s.fullPassOnly || r.cfg.Target != inject.TargetNeuron {
		return nil
	}
	block := s.blockOf[r.cfg.Layer]
	if block == 0 {
		return nil
	}
	return &prefixMemo{
		root:    s.root,
		block:   block,
		first:   s.blockStart[block],
		state:   make([]cutState, r.geom.pool.Len()),
		missing: make([]int, 0, r.batch),
		batch:   r.batch,
		views:   make(map[int]*tensor.Tensor, 2),
	}
}

// start reports whether a group's passes can start at the cut. It first
// computes the cut of every sample that has none, with one clean prefix
// pass over just those samples; false means some sample must run the full
// pass, and so does the whole group.
func (m *prefixMemo) start(r *campaignRunner, samples []int) bool {
	missing := m.missing[:0]
	for _, s := range samples {
		if m.state[s] == cutMissing && !slices.Contains(missing, s) {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		m.fill(r, missing)
	}
	for _, s := range samples {
		if m.state[s] == cutFull {
			r.countPrefix(prefixFull, len(samples))
			return false
		}
	}
	r.countPrefix(prefixComputed, len(missing))
	r.countPrefix(prefixReused, len(samples)-len(missing))
	return true
}

// fill runs the clean prefix over samples under the injected pass's own
// hooks minus the injection — emulation, the ranger clamp, the armed
// pipeline — and memoizes each sample's cut. A sample whose prefix raised a
// detector event (a flag or a non-finite mark) is marked full-pass instead:
// skipping its prefix would drop that event from the injected pass's
// recorder.
func (m *prefixMemo) fill(r *campaignRunner, samples []int) {
	rows := len(samples)
	var rec *detect.Recorder
	if r.pipeline != nil {
		rec = detect.NewRecorder(rows)
	}
	x := r.scratch.gather(r.geom.pool.X, samples)
	ctx := nn.NewContext(r.withTiming(r.armedCleanHooks(rows, rec)))
	cut := nn.ForwardRange(ctx, m.root, 0, m.block, 0, x)
	if m.buf == nil {
		m.row = cut.Len() / rows
		shape := cut.Shape()
		shape[0] = len(m.state)
		m.buf = campaignArena.Get(len(m.state) * m.row)
		m.all = tensor.Wrap(m.buf, shape...)
		m.in = campaignArena.Get(m.batch * m.row)
	}
	data := cut.Data()
	for k, s := range samples {
		if rec != nil && (rec.RowFlagged(k) || rec.FirstNonFiniteLayer(k) >= 0) {
			m.state[s] = cutFull
			continue
		}
		copy(m.buf[s*m.row:(s+1)*m.row], data[k*m.row:(k+1)*m.row])
		m.state[s] = cutReady
	}
}

// gather fills and returns the suffix input for samples: their memoized
// cuts, copied into arena-backed storage so a pass that writes its input in
// place cannot corrupt the memo. The view is valid until the next gather.
func (m *prefixMemo) gather(samples []int) *tensor.Tensor {
	rows := len(samples)
	x := m.views[rows]
	if x == nil {
		shape := m.all.Shape()
		shape[0] = rows
		x = tensor.Wrap(m.in[:rows*m.row], shape...)
		m.views[rows] = x
	}
	tensor.GatherRowsInto(x, m.all, samples)
	return x
}

// run runs one pass of samples from the cut to the logits.
func (m *prefixMemo) run(ctx *nn.Context, samples []int) *tensor.Tensor {
	return nn.ForwardRange(ctx, m.root, m.block, len(m.root.Children()), m.first, m.gather(samples))
}

// release returns the arena-backed storage. The memo must not be used
// afterwards.
func (m *prefixMemo) release() {
	if m == nil || m.buf == nil {
		return
	}
	campaignArena.Put(m.buf)
	campaignArena.Put(m.in)
	m.buf, m.in, m.all, m.views = nil, nil, nil, nil
}

// groupPass returns how a group's passes run: from the cut when the prefix
// memo serves every sample of the group, else from the network input,
// which input builds. Every pass emulates per sample, so a cut is the same
// whichever group computed it, and groups of any size — tail groups and
// per-sample panic re-runs included — read the memo.
func (r *campaignRunner) groupPass(samples []int, input func() *tensor.Tensor) func(*nn.HookSet) *tensor.Tensor {
	if r.prefix != nil {
		if r.prefix.start(r, samples) {
			return func(h *nn.HookSet) *tensor.Tensor {
				return r.prefix.run(nn.NewContext(r.withTiming(h)), samples)
			}
		}
	} else {
		r.countPrefix(prefixFull, len(samples))
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
