package main

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"goldeneye"
	"goldeneye/internal/dataset"
	"goldeneye/internal/inject"
	"goldeneye/internal/nn"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/tensor"
	"goldeneye/internal/zoo"
)

// fiSpec describes one campaign-loop workload.
type fiSpec struct {
	model      string
	assignment string                  // -format-map syntax
	site       func(k int) inject.Site // site of the k-th campaign
	layer      func(inj []int) int     // fault layer from InjectableLayers()
	detectors  string
	recovery   goldeneye.RecoveryPolicy
	useRanger  bool

	full, smoke fiSizes
}

// fiSizes are a workload's counts: pool samples, injection batch, and the
// campaigns per round and injections per campaign.
type fiSizes struct{ pool, batch, campaigns, injections int }

// fiResNet is the paper's Fig 7 campaign loop on the deeper CNN: GEMM,
// im2col and fused BFP dominate, and a late fault layer makes most of each
// pass the fault-free prefix.
var fiResNet = &workload{
	name:      "fi-resnet",
	models:    []string{"resnet_m"},
	setupReps: 15,
	runner: func() runner {
		return &fiRunner{spec: &fiSpec{
			model:      "resnet_m",
			assignment: "a:bfp_e5m5",
			site: func(k int) inject.Site {
				if k%2 == 1 {
					return inject.SiteMetadata
				}
				return inject.SiteValue
			},
			layer:     func(inj []int) int { return inj[len(inj)-2] },
			useRanger: true,
			full:      fiSizes{pool: 64, batch: 16, campaigns: 2, injections: 256},
			smoke:     fiSizes{pool: 16, batch: 8, campaigns: 1, injections: 32},
		}}
	},
}

// fiViTAccum drives the same engine differently: a transformer with
// accumulator faults, per-step accumulator rounding, detector calibration
// and re-execution, faulting the first layer so the prefix is empty.
var fiViTAccum = &workload{
	name:      "fi-vit-accum",
	models:    []string{"vit_tiny"},
	setupReps: 15,
	runner: func() runner {
		return &fiRunner{spec: &fiSpec{
			model:      "vit_tiny",
			assignment: "w:bf16,a:fp8_e4m3,acc:fp16",
			site:       func(int) inject.Site { return inject.SiteAccum },
			// The patch projection. Accumulator faults on the token-level
			// linears behind it abort about nine in ten injections (the
			// fault element is drawn over the whole token sequence but
			// applied within one token's row), which would time the
			// engine's panic recovery instead of its injections.
			layer:     func(inj []int) int { return inj[0] },
			detectors: "ranger,abft",
			recovery:  goldeneye.RecoverReexecute,
			full:      fiSizes{pool: 16, batch: 8, campaigns: 1, injections: 64},
			smoke:     fiSizes{pool: 8, batch: 4, campaigns: 1, injections: 16},
		}}
	},
}

// fiRunner runs one campaign-loop workload: rounds of sequential
// RunCampaignParallel calls at load workers.
type fiRunner struct {
	spec  *fiSpec
	sizes fiSizes

	poolIdx []int // the seed-drawn pool samples

	ds        *dataset.Dataset
	sim       *goldeneye.Simulator
	pool      *goldeneye.EvalPool
	layer     int
	asg       *goldeneye.FormatAssignment
	detectors []goldeneye.DetectorSpec

	warm *goldeneye.CampaignReport // the warm-up campaign, rerun by check
	op   int                       // next operation index

	// Traced-campaign accumulators.
	traced                       int
	wall, setupS, loopS          []float64
	buildS, calibrationS         float64
	forwardPasses                int64
	occupancySum                 float64
	occupancyCount               int64
	layerS                       map[int]float64 // inclusive forward seconds by layer index
	parent                       map[int]int     // layer index → enclosing layer index
	injections, mismatches       int
	nonFinite                    int
	detections, recoveries, fpos int
}

func (f *fiRunner) setup(e *env) error {
	f.sizes = f.spec.full
	if e.o.smoke {
		f.sizes = f.spec.smoke
	}
	e.digestOps = f.sizes.campaigns
	if f.poolIdx == nil {
		f.poolIdx = e.rng.Perm(dataset.Default().ValPerClass * dataset.Default().Classes)[:f.sizes.pool]
	}
	if err := e.part("dataset.synth_s", func() error {
		f.ds = dataset.New(dataset.Default())
		return nil
	}); err != nil {
		return err
	}
	var model goldeneye.Module
	if err := e.part("zoo.load_s", func() (err error) {
		model, err = zoo.PretrainedOn(zoo.DefaultDir(), f.spec.model, f.ds)
		return err
	}); err != nil {
		return err
	}
	if err := e.part("goldeneye.wrap_s", func() (err error) {
		f.sim, err = goldeneye.NewSimulator(model, f.ds.ValX)
		return err
	}); err != nil {
		return err
	}
	inj := f.sim.InjectableLayers()
	f.layer = f.spec.layer(inj)
	var err error
	if f.asg, err = goldeneye.ParseFormatMap(f.spec.assignment); err != nil {
		return err
	}
	if f.spec.detectors != "" {
		if f.detectors, err = goldeneye.ParseDetectors(f.spec.detectors); err != nil {
			return err
		}
	}
	x, y := gather(f.ds.ValX, f.ds.ValY, f.poolIdx)
	f.pool, err = goldeneye.NewEvalPool(x, y, f.sizes.batch)
	return err
}

func (f *fiRunner) teardown() {}

// config returns the k-th campaign's configuration; every campaign draws
// its seed from the run's seed in operation order.
func (f *fiRunner) config(e *env, k int) goldeneye.CampaignConfig {
	return goldeneye.CampaignConfig{
		Assignment: f.asg,
		Site:       f.spec.site(k),
		Target:     goldeneye.TargetNeuron,
		Layer:      f.layer,
		Injections: f.sizes.injections,
		Seed:       e.rng.Uint64(),
		Pool:       f.pool,
		BatchSize:  f.sizes.batch,
		UseRanger:  f.spec.useRanger,
		Detectors:  f.detectors,
		Recovery:   f.spec.recovery,
	}
}

// build is the campaign's worker constructor: a fresh zoo load per worker,
// which is what the campaign service and the CLI pay per campaign.
func (f *fiRunner) build(tr *tracer, parent, op int, buildNs *atomic.Int64) func() (*goldeneye.Simulator, error) {
	var lane atomic.Int64
	return func() (*goldeneye.Simulator, error) {
		id := tr.begin("campaign.build", parent, op, int(lane.Add(1)))
		start := time.Now()
		defer func() {
			buildNs.Add(int64(time.Since(start)))
			tr.end(id)
		}()
		m, err := zoo.PretrainedOn(zoo.DefaultDir(), f.spec.model, f.ds)
		if err != nil {
			return nil, err
		}
		return goldeneye.NewSimulator(m, f.ds.ValX)
	}
}

// warmup runs a quarter-size campaign; check reruns it serially, which
// keeps that untimed rerun short.
func (f *fiRunner) warmup(e *env) error {
	cfg := f.config(e, 0)
	cfg.Injections = max(f.sizes.injections/4, 2*f.sizes.batch)
	var buildNs atomic.Int64
	rep, err := goldeneye.RunCampaignParallel(context.Background(), cfg, load, f.build(e.off, -1, -1, &buildNs))
	e.attempted++
	if err != nil {
		return err
	}
	f.warm = rep
	return nil
}

func (f *fiRunner) window(e *env, deadline time.Time) {
	e.rounds(deadline, func(r int, traced bool) float64 {
		tr := e.spans(traced)
		round := tr.begin("round", -1, -1, 0)
		defer tr.end(round)
		work := 0
		for c := 0; c < f.sizes.campaigns; c++ {
			op := f.op
			f.op++
			work += f.campaign(e, tr, round, op, f.config(e, op), traced)
		}
		return float64(work)
	})
}

// campaign runs one measured campaign and returns its executed injections.
func (f *fiRunner) campaign(e *env, tr *tracer, parent, op int, cfg goldeneye.CampaignConfig, traced bool) int {
	var reg *telemetry.Registry
	var firstProgress atomic.Int64
	start := time.Now()
	if traced {
		reg = telemetry.NewRegistry()
		cfg.Metrics = reg
		cfg.Progress = func(done, total int) {
			firstProgress.CompareAndSwap(0, int64(time.Since(start)))
		}
	}
	id := tr.begin("RunCampaignParallel", parent, op, 0)
	var buildNs atomic.Int64
	rep, err := goldeneye.RunCampaignParallel(context.Background(), cfg, load, f.build(tr, id, op, &buildNs))
	end := time.Now()
	tr.end(id)
	e.attempted++
	e.opLatency(end.Sub(start), traced, true)
	if err != nil {
		e.fail("campaign %d: %v", op, err)
		return 0
	}
	if rep.Injections+rep.Aborted != cfg.Injections || rep.Interrupted {
		e.fail("campaign %d: executed %d+%d aborted of %d injections", op, rep.Injections, rep.Aborted, cfg.Injections)
	}
	wire, err := json.Marshal(rep)
	if err != nil {
		e.fail("campaign %d: encode report: %v", op, err)
	}
	e.output(op, wire)
	if traced {
		first := start.Add(time.Duration(firstProgress.Load()))
		tr.record("campaign.setup", start, first, id, op, 0)
		tr.record("campaign.loop", first, end, id, op, 0)
		f.observe(rep, reg, end.Sub(start), first.Sub(start), end.Sub(first), time.Duration(buildNs.Load()))
	}
	return rep.Injections + rep.Aborted
}

// observe folds one traced campaign into the per-layer accumulators.
func (f *fiRunner) observe(rep *goldeneye.CampaignReport, reg *telemetry.Registry, wall, setup, loop, build time.Duration) {
	f.traced++
	f.wall = append(f.wall, wall.Seconds())
	f.setupS = append(f.setupS, setup.Seconds())
	f.loopS = append(f.loopS, loop.Seconds())
	f.buildS += build.Seconds()
	f.injections += rep.Injections
	f.mismatches += rep.Mismatches
	f.nonFinite += rep.NonFinite
	f.recoveries += rep.Recovered
	for _, d := range rep.PerDetector {
		f.detections += d.Detections
		f.fpos += d.FalsePositives
	}
	if f.layerS == nil {
		f.layerS = map[int]float64{}
	}
	for _, m := range reg.Snapshot() {
		switch {
		case strings.HasPrefix(m.Name, goldeneye.ForwardSecondsMetric+"{"):
			idx, ok := layerIndex(m.Name)
			if !ok {
				continue
			}
			f.layerS[idx] += m.Sum
			if idx == 0 {
				f.forwardPasses += m.Count // the first layer runs once per forward pass
			}
		case m.Name == goldeneye.MetricCampaignOccupancy:
			f.occupancySum += m.Sum
			f.occupancyCount += m.Count
		case m.Name == goldeneye.MetricCampaignCalibration:
			f.calibrationS += m.Sum
		}
	}
}

// layerIndex parses the visit index out of a forward-seconds label,
// `goldeneye_nn_forward_seconds{layer="12:blocks.1.conv(conv)"}`.
func layerIndex(name string) (int, bool) {
	_, rest, ok := strings.Cut(name, `layer="`)
	if !ok {
		return 0, false
	}
	num, _, ok := strings.Cut(rest, ":")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(num)
	return i, err == nil
}

// check reruns the warm-up campaign serially at batch 1: its integer
// aggregates must equal the parallel batched run's.
func (f *fiRunner) check(e *env) {
	e.attempted++
	cfg := f.warm.Config
	cfg.BatchSize = 1
	cfg.Metrics, cfg.Progress = nil, nil
	rep, err := f.sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		e.fail("serial rerun: %v", err)
		return
	}
	type agg struct{ Injections, Mismatches, NonFinite, Detected, Recovered int }
	got := agg{rep.Injections, rep.Mismatches, rep.NonFinite, rep.Detected, rep.Recovered}
	want := agg{f.warm.Injections, f.warm.Mismatches, f.warm.NonFinite, f.warm.Detected, f.warm.Recovered}
	if got != want {
		e.fail("serial batch-1 rerun aggregates %+v differ from the parallel batched run's %+v", got, want)
	}
}

func (f *fiRunner) layers(e *env, m map[string]float64) {
	if f.traced == 0 {
		return
	}
	m["campaign.calls"] = float64(f.traced)
	m["campaign.wall_s_p50"] = median(f.wall)
	m["campaign.build_s"] = f.buildS
	m["campaign.setup_s_p50"] = median(f.setupS)
	m["campaign.loop_s_p50"] = median(f.loopS)
	m["campaign.setup_share"] = ratio(sum(f.setupS), sum(f.wall))
	m["campaign.forward_passes"] = float64(f.forwardPasses)
	m["campaign.batch_occupancy_mean"] = ratio(f.occupancySum, float64(f.occupancyCount))
	m["detect.calibration_s"] = f.calibrationS
	m["detect.detections"] = float64(f.detections)
	m["detect.recoveries"] = float64(f.recoveries)
	m["detect.false_positives"] = float64(f.fpos)
	m["inject.injections"] = float64(f.injections)
	m["inject.mismatches"] = float64(f.mismatches)
	m["inject.nonfinite"] = float64(f.nonFinite)
	m["inject.sdc_rate"] = ratio(float64(f.mismatches), float64(f.injections))

	// Self time per layer: a layer's forward time minus its children's
	// (attention contains its projections, the patch embedding its conv).
	if f.parent == nil {
		f.parent = layerParents(f.sim)
	}
	self := map[int]float64{}
	for idx, s := range f.layerS {
		self[idx] += s
		if p := f.parent[idx]; p >= 0 {
			self[p] -= s
		}
	}
	// The prefix is every layer that finishes before the fault layer
	// starts: earlier in visit order and not one of its ancestors.
	ancestor := map[int]bool{}
	for p := f.parent[f.layer]; p >= 0; p = f.parent[p] {
		ancestor[p] = true
	}
	kind := map[int]string{}
	for _, l := range f.sim.Layers() {
		kind[l.Index] = l.Kind.String()
	}
	var total, prefix float64
	for idx, s := range self {
		total += s
		if idx < f.layer && !ancestor[idx] {
			prefix += s
		}
		if name := "nn." + kind[idx] + "_s"; isLayerKindMetric(name) {
			m[name] += s
		}
	}
	m["nn.prefix_share"] = ratio(prefix, total)
}

func isLayerKindMetric(name string) bool {
	for _, k := range layerKinds {
		if name == "nn."+k+"_s" {
			return true
		}
	}
	return false
}

// layerParents traces one forward pass and maps each layer's visit index
// to the index of the layer it runs inside (-1 for the root).
func layerParents(sim *goldeneye.Simulator) map[int]int {
	parent := map[int]int{}
	var stack []int
	hooks := nn.NewHookSet()
	hooks.PreForward(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		p := -1
		if len(stack) > 0 {
			p = stack[len(stack)-1]
		}
		parent[info.Index] = p
		stack = append(stack, info.Index)
		return t
	})
	hooks.PostForward(nn.AllLayers(), func(_ nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		stack = stack[:len(stack)-1]
		return t
	})
	ds := dataset.Default()
	sim.LogitsWithHooks(tensor.New(1, ds.Channels, ds.Height, ds.Width), hooks)
	return parent
}

// gather copies the rows idx of (x, y) into a new pool.
func gather(x *tensor.Tensor, y []int, idx []int) (*tensor.Tensor, []int) {
	out := tensor.New(append([]int{len(idx)}, x.Shape()[1:]...)...)
	labels := make([]int, len(idx))
	row := x.Len() / x.Dim(0)
	for i, src := range idx {
		copy(out.Data()[i*row:(i+1)*row], x.Data()[src*row:(src+1)*row])
		labels[i] = y[src]
	}
	return out, labels
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
