package goldeneye

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"goldeneye/internal/dataset"
	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/sampling"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/tensor"
	"goldeneye/internal/zoo"
)

// prefixDataset is the zoo's default dataset, synthesized once for this
// file's many campaign builds.
var prefixDataset = sync.OnceValue(func() *dataset.Dataset { return dataset.New(dataset.Default()) })

// prefixBuilder returns a campaign worker constructor for a zoo model; with
// fullPassOnly every pass it runs starts at the network input.
func prefixBuilder(model string, fullPassOnly bool) func() (*Simulator, error) {
	ds := prefixDataset()
	return func() (*Simulator, error) {
		m, err := zoo.PretrainedOn(zoo.DefaultDir(), model, ds)
		if err != nil {
			return nil, err
		}
		s, err := NewSimulator(m, ds.ValX.Slice(0, 1))
		if err != nil {
			return nil, err
		}
		s.fullPassOnly = fullPassOnly
		return s, nil
	}
}

// prefixCase is one campaign of the reuse property matrix.
type prefixCase struct {
	model   string
	pos     string // early, middle or late injectable layer
	format  string // -format-map syntax
	site    inject.Site
	batch   int
	workers int
	mode    string // "", sampled, sharded, resumed or detect
}

// runPrefixCase runs c with clean-prefix reuse on or off and returns the
// report's wire bytes plus the prefix-row counters by outcome.
func runPrefixCase(t *testing.T, c prefixCase, fullPassOnly bool) ([]byte, [2]int64) {
	t.Helper()
	build := prefixBuilder(c.model, fullPassOnly)
	sim, err := build()
	if err != nil {
		t.Fatal(err)
	}
	ds := prefixDataset()
	asg, err := ParseFormatMap(c.format)
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.InjectableLayers()
	layer := map[string]int{"early": inj[1], "middle": inj[len(inj)/2], "late": inj[len(inj)-2]}[c.pos]
	reg := telemetry.NewRegistry()
	pool, err := NewEvalPool(ds.ValX.Slice(0, 16), ds.ValY[:16], 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Assignment: asg,
		Site:       c.site,
		Target:     inject.TargetNeuron,
		Layer:      layer,
		Injections: 24,
		Seed:       uint64(len(c.model)*100 + layer),
		Pool:       pool,
		BatchSize:  c.batch,
		UseRanger:  true,
		KeepTrace:  true,
		Metrics:    reg,
	}
	switch c.mode {
	case "sampled":
		cfg.Sampling = &sampling.Plan{Fraction: 0.5}
	case "sharded":
		cfg.ShardIndex, cfg.ShardCount = 1, 2
	case "detect":
		if cfg.Detectors, err = ParseDetectors("ranger,abft"); err != nil {
			t.Fatal(err)
		}
		cfg.Recovery = detect.PolicyReexecute
	case "resumed":
		cfg.KeepTrace = false
		pre := cfg
		pre.Injections = 9
		prefix, err := RunCampaignParallel(context.Background(), pre, c.workers, build)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Resume = prefix
	}
	rep, err := RunCampaignParallel(context.Background(), cfg, c.workers, build)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var rows [2]int64
	for i, c := range prefixRowCounters(reg) {
		rows[i] = c.Value()
	}
	return wire, rows
}

// Clean-prefix reuse is invisible in the report: over format families,
// sites, early/middle/late fault layers of a CNN and a transformer, batch 1
// and 16, workers 1 and 2, and sampled, sharded, resumed and detector-armed
// runs, the report's wire bytes — trace included — equal the full-pass
// path's, while the reuse runs really start passes at the cut.
func TestPrefixReuseByteIdentical(t *testing.T) {
	value, meta, accum := inject.SiteValue, inject.SiteMetadata, inject.SiteAccum
	var cases []prefixCase
	for _, model := range []string{"resnet_s", "vit_tiny"} {
		cases = append(cases,
			prefixCase{model, "early", "a:fp8_e4m3", value, 1, 1, ""},
			prefixCase{model, "early", "a:int8", meta, 16, 2, "detect"},
			prefixCase{model, "early", "a:bfp_e5m5", accum, 16, 1, "sharded"},
			prefixCase{model, "middle", "a:bfp_e5m5", meta, 1, 2, ""},
			prefixCase{model, "middle", "a:fp16", accum, 1, 1, "resumed"},
			prefixCase{model, "late", "a:bfp_e5m5", value, 16, 1, "sampled"},
			prefixCase{model, "late", "a:afp_e5m2", meta, 16, 2, "resumed"},
		)
	}
	cases = append(cases, prefixCase{"vit_tiny", "late", "a:fp8_e4m3,acc:fp16", accum, 16, 2, ""})
	for i, c := range cases {
		if raceEnabled && i%7 != 1 {
			// The race run keeps one two-worker case per model; the plain
			// run covers the whole matrix.
			continue
		}
		t.Run(fmt.Sprintf("%s/%s/%s/%s/b%d/w%d/%s", c.model, c.pos, c.format, c.site, c.batch, c.workers, c.mode), func(t *testing.T) {
			full, fullRows := runPrefixCase(t, c, true)
			got, rows := runPrefixCase(t, c, false)
			if string(got) != string(full) {
				t.Fatalf("report with reuse diverges from the full-pass report:\nreuse: %s\nfull:  %s", got, full)
			}
			if fullRows[prefixReused] != 0 || fullRows[prefixFull] == 0 {
				t.Fatalf("full-pass run counted prefix rows %v", fullRows)
			}
			if rows[prefixReused] == 0 {
				t.Fatalf("reuse run never started a pass at the cut: prefix rows %v", rows)
			}
		})
	}
}

// flagger is a detector that flags, on clean data too, every row whose
// first activation at layer is positive — a clean-prefix event for about
// half the pool.
type flagger struct{ layer int }

func (flagger) Name() string                            { return "flagger" }
func (flagger) CalibrationHooks() (*nn.HookSet, func()) { return nil, nil }
func (flagger) FinishCalibration() error                { return nil }
func (f flagger) Arm(rec *detect.Recorder, _ detect.Policy) *nn.HookSet {
	h := nn.NewHookSet()
	h.PostForward(nn.ByIndex(f.layer), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		span := t.Len() / rec.Rows()
		for row := 0; row < rec.Rows(); row++ {
			if t.Data()[row*span] > 0 {
				rec.Flag("flagger", info.Index, row)
			}
		}
		return t
	})
	return h
}

// A sample whose clean prefix raises a detector event runs full passes, and
// so does every group containing it: the events stay in the report exactly
// as the full-pass path records them.
func TestPrefixReuseDetectorEventForcesFullPass(t *testing.T) {
	for _, batch := range []int{1, 4} {
		var wires [2][]byte
		var rows [2]int64
		for i, fullPassOnly := range []bool{true, false} {
			sim, err := prefixBuilder("mlp", fullPassOnly)()
			if err != nil {
				t.Fatal(err)
			}
			ds := prefixDataset()
			reg := telemetry.NewRegistry()
			cfg := CampaignConfig{
				Format:     numfmt.INT8(),
				Site:       inject.SiteValue,
				Target:     inject.TargetNeuron,
				Layer:      sim.InjectableLayers()[2],
				Injections: 32,
				Seed:       5,
				Pool:       &EvalPool{X: ds.ValX.Slice(0, 8), Y: ds.ValY[:8]},
				BatchSize:  batch,
				KeepTrace:  true,
				Detectors: []detect.Spec{{New: func(detect.Target) (detect.Detector, error) {
					return flagger{layer: sim.InjectableLayers()[0]}, nil
				}}},
				Metrics: reg,
			}
			rep, err := sim.RunCampaign(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Detected == 0 || rep.Detected == rep.Injections {
				t.Fatalf("batch %d: the flagger should flag some samples, flagged %d of %d", batch, rep.Detected, rep.Injections)
			}
			wires[i], _ = json.Marshal(rep)
			for k, c := range prefixRowCounters(reg) {
				rows[k] = c.Value()
			}
		}
		if string(wires[0]) != string(wires[1]) {
			t.Fatalf("batch %d: reuse diverges from the full-pass path:\nreuse: %s\nfull:  %s", batch, wires[1], wires[0])
		}
		if rows[prefixFull] == 0 || rows[prefixReused] == 0 {
			t.Fatalf("batch %d: want both full and reused rows, got %v", batch, rows)
		}
	}
}

// The prefix-row counters account every injected-pass row: every row
// starts at its sample's cut from the calibration's cut table, and a fault
// in top-level child 0 has no prefix to reuse.
func TestPrefixRowsTelemetry(t *testing.T) {
	for _, c := range []struct {
		layer, batch, injections int
		want                     [2]int64
	}{
		{1, 1, 24, [2]int64{24, 0}},
		{1, 4, 24, [2]int64{24, 0}},
		{1, 4, 25, [2]int64{25, 0}}, // the one-sample tail group starts at its cut too
		{0, 4, 24, [2]int64{0, 24}}, // the flatten, top-level child 0
	} {
		sim, err := prefixBuilder("mlp", false)()
		if err != nil {
			t.Fatal(err)
		}
		ds := prefixDataset()
		reg := telemetry.NewRegistry()
		cfg := CampaignConfig{
			Format:     numfmt.FP16(true),
			Site:       inject.SiteValue,
			Target:     inject.TargetNeuron,
			Layer:      sim.Layers()[c.layer].Index,
			Injections: c.injections,
			Seed:       2,
			Pool:       &EvalPool{X: ds.ValX.Slice(0, 8), Y: ds.ValY[:8]},
			BatchSize:  c.batch,
			Metrics:    reg,
		}
		if _, err := sim.RunCampaign(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		var got [2]int64
		for i, ctr := range prefixRowCounters(reg) {
			got[i] = ctr.Value()
		}
		if got != c.want {
			t.Fatalf("layer %d batch %d, %d injections: prefix rows (reused, full) = %v, want %v",
				c.layer, c.batch, c.injections, got, c.want)
		}
	}
}

// The armed clean sweep is the only clean prefix pass: in a ranger,abft
// campaign at two workers the first layer runs once per timed setup-sweep
// slice — the clean references and the armed clean sweep — and never in an
// injection group, whose passes all start at the cut.
func TestArmedSweepIsTheOnlyPrefixPass(t *testing.T) {
	calibrations.Clear() // a hit runs no setup sweep
	const samples, batch, injections = 16, 4, 24
	build := prefixBuilder("resnet_s", false)
	sim, err := build()
	if err != nil {
		t.Fatal(err)
	}
	ds := prefixDataset()
	asg, err := ParseFormatMap("a:bfp_e5m5")
	if err != nil {
		t.Fatal(err)
	}
	detectors, err := ParseDetectors("ranger,abft")
	if err != nil {
		t.Fatal(err)
	}
	inj := sim.InjectableLayers()
	reg := telemetry.NewRegistry()
	cfg := CampaignConfig{
		Assignment: asg,
		Site:       inject.SiteValue,
		Target:     inject.TargetNeuron,
		Layer:      inj[len(inj)-2],
		Injections: injections,
		Seed:       7,
		Pool:       &EvalPool{X: ds.ValX.Slice(0, samples), Y: ds.ValY[:samples]},
		BatchSize:  batch,
		Detectors:  detectors,
		Metrics:    reg,
	}
	if _, err := RunCampaignParallel(context.Background(), cfg, 2, build); err != nil {
		t.Fatal(err)
	}
	first := reg.Histogram(telemetry.Label(ForwardSecondsMetric, "layer", sim.Layers()[0].String()), nil)
	if got, want := first.Count(), int64(2*samples/batch); got != want {
		t.Fatalf("first layer ran %d times, want %d: one per reference and armed-sweep slice", got, want)
	}
	rows := prefixRowCounters(reg)
	if got := rows[prefixReused].Value(); got != injections {
		t.Fatalf("%d of %d injected rows started at the cut", got, injections)
	}
}
