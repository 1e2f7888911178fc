package exper

import (
	"context"
	"fmt"
	"io"
	"time"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/tensor"
)

// Fig3Row is one bar of Fig 3: a model × format-configuration runtime, with
// error injection off, on for data values, or on for metadata.
type Fig3Row struct {
	Model    string
	Config   string
	EI       string // "off", "value", "metadata"
	AvgTime  time.Duration
	Slowdown float64 // relative to the native baseline
}

// fig3Configs lists the 14 format configurations of Fig 3: the native
// baseline plus emulated FP/FxP/INT (fast, arithmetic path) and BFP/AFP
// (slow, code-based path: numfmt.Generic).
func fig3Configs() []struct {
	name   string
	format numfmt.Format
	meta   bool
} {
	return []struct {
		name   string
		format numfmt.Format
		meta   bool
	}{
		{name: "native_fp32"},
		{name: "fp32", format: numfmt.FP32(true)},
		{name: "fp16", format: numfmt.FP16(true)},
		{name: "bfloat16", format: numfmt.BFloat16(true)},
		{name: "tf32", format: numfmt.TensorFloat32(true)},
		{name: "fp8_e4m3", format: numfmt.FP8E4M3(true)},
		{name: "fxp_1_15_16", format: numfmt.FxP32()},
		{name: "fxp_1_7_8", format: numfmt.FxP16()},
		{name: "int16", format: numfmt.INT16(), meta: true},
		{name: "int8", format: numfmt.INT8(), meta: true},
		{name: "bfp_e8m7", format: numfmt.Generic(numfmt.NewBFP(8, 7, 0)), meta: true},
		{name: "bfp_e5m5", format: numfmt.Generic(numfmt.BFPe5m5()), meta: true},
		{name: "afp_e5m2", format: numfmt.Generic(numfmt.AFPe5m2()), meta: true},
		{name: "afp_e4m3", format: numfmt.Generic(numfmt.NewAFP(4, 3, true)), meta: true},
	}
}

// Fig3 measures inference runtime for every format configuration and EI
// mode, reproducing the shape of the paper's Fig 3: native fastest, FP/FxP/
// INT near-native, BFP/AFP notably slower, EI overhead negligible.
//
// The BFP/AFP slowdown the paper reports is the cost of the generic
// quantize→dequantize code path, so that is what this experiment runs: its
// BFP/AFP configurations are numfmt.Generic formats, while FP/FxP/INT keep
// their fused kernels. The fused-kernel performance story (which closes
// exactly this gap) is measured by the campaign bench matrix instead — see
// BENCH_campaign.json and docs/PERFORMANCE.md.
func Fig3(ctx context.Context, models []string, runs int, w io.Writer, o Options) ([]Fig3Row, error) {
	if runs <= 0 {
		runs = 5
	}
	var rows []Fig3Row
	for _, name := range models {
		sim, ds, err := loadSim(name, o)
		if err != nil {
			return nil, err
		}
		batch := ds.ValX.Slice(0, min(32, ds.ValLen()))

		var baseline time.Duration
		for _, cfg := range fig3Configs() {
			modes := []string{"off"}
			if cfg.format != nil {
				modes = append(modes, "value")
				if cfg.meta {
					modes = append(modes, "metadata")
				}
			}
			for _, mode := range modes {
				if err := ctx.Err(); err != nil {
					return rows, err
				}
				avg := timeInference(sim, batch, cfg.format, mode, runs)
				if cfg.format == nil {
					baseline = avg
				}
				slow := float64(avg) / float64(baseline)
				rows = append(rows, Fig3Row{
					Model:    paperName(name),
					Config:   cfg.name,
					EI:       mode,
					AvgTime:  avg,
					Slowdown: slow,
				})
				if w != nil {
					fmt.Fprintf(w, "%-12s %-14s EI=%-8s %12v  %5.2fx\n",
						paperName(name), cfg.name, mode, avg.Round(time.Microsecond), slow)
				}
			}
		}
	}
	return rows, nil
}

// timeInference measures the average wall time of one batch inference under
// the given format/EI mode.
func timeInference(sim *goldeneye.Simulator, batch *goldeneye.Tensor, format numfmt.Format, mode string, runs int) time.Duration {
	layer := sim.InjectableLayers()
	target := layer[len(layer)/2]
	run := func() {
		switch {
		case format == nil:
			sim.Logits(batch, goldeneye.EmulationConfig{})
		case mode == "off":
			sim.Logits(batch, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
				Default: goldeneye.RoleFormats{Activations: format},
			}})
		default:
			site := inject.SiteValue
			if mode == "metadata" {
				site = inject.SiteMetadata
			}
			fault := inject.Fault{
				Layer: target, Site: site, Target: inject.TargetNeuron,
				Element: 0, Bit: 0,
			}
			hooks := emulationWithFault(format, fault, target)
			sim.LogitsWithHooks(batch, hooks)
		}
	}
	run() // warm up caches and pools
	start := time.Now()
	for i := 0; i < runs; i++ {
		run()
	}
	return time.Since(start) / time.Duration(runs)
}

// emulationWithFault assembles hooks that quantize every CONV/LINEAR
// activation to format and inject one fault at the target layer.
func emulationWithFault(format numfmt.Format, fault inject.Fault, target int) *goldeneye.HookSet {
	hooks := nn.NewHookSet()
	hooks.PostForward(nn.DefaultLayers(), func(_ nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		return format.Emulate(t)
	})
	hooks.PostForward(nn.ByIndex(target), inject.NeuronHook(format, [][]inject.Fault{{fault}}))
	return hooks
}
