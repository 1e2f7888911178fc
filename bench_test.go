package goldeneye_test

// Benchmark harness: one benchmark per table/figure of the paper (see
// DESIGN.md §3), plus micro-benchmarks of the substrates the figures rest
// on. Benchmarks use reduced campaign sizes per iteration so `go test
// -bench=.` finishes in minutes; cmd/experiments runs the paper-scale
// versions.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"goldeneye"
	"goldeneye/internal/dataset"
	"goldeneye/internal/dse"
	"goldeneye/internal/exper"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
	"goldeneye/internal/zoo"
)

func benchSim(b *testing.B, name string) (*goldeneye.Simulator, *goldeneye.Tensor, []int) {
	b.Helper()
	model, ds, err := zoo.Pretrained(name)
	if err != nil {
		b.Fatal(err)
	}
	return goldeneye.Wrap(model, ds.ValX.Slice(0, 1)), ds.ValX, ds.ValY
}

// BenchmarkTable1RangeComputation regenerates Table I.
func BenchmarkTable1RangeComputation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := goldeneye.Table1Rows(); len(rows) != 12 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig3Inference times one batch-32 inference per format
// configuration — the quantity plotted in Fig 3. Compare ns/op across
// sub-benchmarks: native fastest; fp/fxp/int close; bfp/afp slower.
func BenchmarkFig3Inference(b *testing.B) {
	sim, x, _ := benchSim(b, "resnet_s")
	batch := x.Slice(0, 32)
	configs := []struct {
		name   string
		format numfmt.Format
		accum  bool // the accumulator runs in format too
	}{
		{name: "native_fp32"},
		{name: "fp16", format: numfmt.FP16(true)},
		{name: "acc_fp16", format: numfmt.FP16(true), accum: true},
		{name: "acc_posit8", format: numfmt.Posit8(), accum: true},
		{name: "fp8_e4m3", format: numfmt.FP8E4M3(true)},
		{name: "fxp_1_7_8", format: numfmt.FxP16()},
		{name: "int8", format: numfmt.INT8()},
		{name: "bfp_e5m5", format: numfmt.BFPe5m5()},
		{name: "afp_e5m2", format: numfmt.AFPe5m2()},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			emu := goldeneye.EmulationConfig{}
			if cfg.format != nil {
				roles := goldeneye.RoleFormats{Activations: cfg.format}
				if cfg.accum {
					roles.Accumulator = cfg.format
				}
				emu = goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{Default: roles}}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.Logits(batch, emu)
			}
		})
	}
}

// BenchmarkFig3ErrorInjection times a full single-injection inference
// (quantize → flip → dequantize at one layer) against its EI-off baseline;
// Fig 3's claim is that the difference is negligible.
func BenchmarkFig3ErrorInjection(b *testing.B) {
	sim, x, y := benchSim(b, "resnet_s")
	for _, site := range []struct {
		name string
		site interface{}
	}{{name: "value"}, {name: "metadata"}} {
		site := site
		b.Run(site.name, func(b *testing.B) {
			s := goldeneye.SiteValue
			if site.name == "metadata" {
				s = goldeneye.SiteMetadata
			}
			layer := sim.InjectableLayers()[2]
			for i := 0; i < b.N; i++ {
				_, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
					Format:     numfmt.BFPe5m5(),
					Site:       s,
					Target:     goldeneye.TargetNeuron,
					Layer:      layer,
					Injections: 1,
					Seed:       uint64(i),
					Pool:       &goldeneye.EvalPool{X: x.Slice(0, 1), Y: y[:1]},
					Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.BFPe5m5()}},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4AccuracySweep measures one full Fig 4 accuracy sweep on the
// CNN (reduced sample count per iteration).
func BenchmarkFig4AccuracySweep(b *testing.B) {
	opts := exper.Options{ValSamples: 60, BatchSize: 20}
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig4(context.Background(), []string{"resnet_s"}, io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6DSE measures one DSE traversal per format family.
func BenchmarkFig6DSE(b *testing.B) {
	sim, x, y := benchSim(b, "vit_tiny")
	xs, ys := x.Slice(0, 60), y[:60]
	for _, family := range dse.Families() {
		family := family
		b.Run(string(family), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := sim.RunDSE(xs, ys, 20, goldeneye.DSEConfig{
					Family:    family,
					Threshold: 0.02,
				})
				if len(res.Nodes) == 0 {
					b.Fatal("no nodes visited")
				}
			}
		})
	}
}

// BenchmarkFig7Resiliency measures a 50-injection ΔLoss campaign per
// site — the unit of work Fig 7 repeats per layer at 1000 injections.
func BenchmarkFig7Resiliency(b *testing.B) {
	sim, x, y := benchSim(b, "resnet_s")
	xs, ys := x.Slice(0, 16), y[:16]
	for _, site := range []string{"value", "metadata"} {
		site := site
		b.Run(site, func(b *testing.B) {
			s := goldeneye.SiteValue
			if site == "metadata" {
				s = goldeneye.SiteMetadata
			}
			for i := 0; i < b.N; i++ {
				_, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
					Format:     numfmt.BFPe5m5(),
					Site:       s,
					Target:     goldeneye.TargetNeuron,
					Layer:      sim.InjectableLayers()[2],
					Injections: 50,
					Seed:       uint64(i),
					Pool:       &goldeneye.EvalPool{X: xs, Y: ys},
					UseRanger:  true,
					Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.BFPe5m5()}},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Tradeoff measures one accuracy+resilience scoring of a
// design point (the unit Fig 9 repeats per accepted DSE node).
func BenchmarkFig9Tradeoff(b *testing.B) {
	sim, x, y := benchSim(b, "resnet_s")
	format := numfmt.NewAFP(4, 4, true)
	xs, ys := x.Slice(0, 16), y[:16]
	for i := 0; i < b.N; i++ {
		sim.Evaluate(x.Slice(0, 60), y[:60], 20, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
			Default: goldeneye.RoleFormats{Activations: format}, Params: format,
		}})
		_, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
			Format:     format,
			Site:       goldeneye.SiteMetadata,
			Target:     goldeneye.TargetNeuron,
			Layer:      sim.InjectableLayers()[1],
			Injections: 20,
			Seed:       uint64(i),
			Pool:       &goldeneye.EvalPool{X: xs, Y: ys},
			UseRanger:  true,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: format}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCampaign measures the sharded campaign runner at
// several worker counts (same fault sequence as serial; see
// RunCampaignParallel). Speedup requires real cores: on a single-CPU
// host the worker counts should tie, with a small sharding overhead —
// correctness parity is what TestParallelCampaignMatchesSerial pins.
func BenchmarkParallelCampaign(b *testing.B) {
	sim0, x, y := benchSim(b, "resnet_s")
	ds := dataset.New(dataset.Default())
	build := func() (*goldeneye.Simulator, error) {
		// Reuse the synthesized dataset; each worker only pays a gob load.
		model, err := zoo.PretrainedOn(zoo.DefaultDir(), "resnet_s", ds)
		if err != nil {
			return nil, err
		}
		return goldeneye.Wrap(model, ds.ValX.Slice(0, 1)), nil
	}
	layer := sim0.InjectableLayers()[2]
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := goldeneye.CampaignConfig{
					Format:     numfmt.BFPe5m5(),
					Site:       goldeneye.SiteValue,
					Target:     goldeneye.TargetNeuron,
					Layer:      layer,
					Injections: 512,
					Seed:       uint64(i),
					Pool:       &goldeneye.EvalPool{X: x.Slice(0, 16), Y: y[:16]},
					Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.BFPe5m5()}},
				}
				if _, err := goldeneye.RunCampaignParallel(context.Background(), cfg, workers, build); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaignBatched measures campaign throughput as the pack batch
// grows: batch_1 is the serial baseline, larger batches amortize per-pass
// overhead and let the batched matmul use multiple cores. Reports are
// bit-identical at every batch size (TestBatchedCampaignBitIdenticalAllFamilies),
// so injections/sec is the only thing that moves. Compare sub-benchmarks
// with benchstat; `make bench` also writes BENCH_campaign.json.
func BenchmarkCampaignBatched(b *testing.B) {
	sim, x, y := benchSim(b, "resnet_s")
	pool, err := goldeneye.NewEvalPool(x.Slice(0, 64), y[:64], 0)
	if err != nil {
		b.Fatal(err)
	}
	layer := sim.InjectableLayers()[2]
	for _, batch := range []int{1, 8, 32} {
		batch := batch
		b.Run(fmt.Sprintf("batch_%d", batch), func(b *testing.B) {
			const injections = 128
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
					Format:     numfmt.BFPe5m5(),
					Site:       goldeneye.SiteValue,
					Target:     goldeneye.TargetNeuron,
					Layer:      layer,
					Injections: injections,
					Seed:       uint64(i),
					Pool:       pool,
					BatchSize:  batch,
					UseRanger:  true,
					Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.BFPe5m5()}},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(injections*b.N)/b.Elapsed().Seconds(), "inj/s")
		})
	}
}

// BenchmarkAssignmentOverhead prices per-visit format resolution: a
// default-only assignment and a per-layer one that assigns every CONV/LINEAR
// layer the same activation format run the identical campaign, so
// benchstat on the two sub-benchmarks shows what per-layer entries cost.
func BenchmarkAssignmentOverhead(b *testing.B) {
	sim, x, y := benchSim(b, "resnet_s")
	pool, err := goldeneye.NewEvalPool(x.Slice(0, 64), y[:64], 0)
	if err != nil {
		b.Fatal(err)
	}
	layer := sim.InjectableLayers()[2]
	f := numfmt.FP8E4M3(true)
	base := goldeneye.CampaignConfig{
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      layer,
		Injections: 128,
		Pool:       pool,
		BatchSize:  8,
	}
	uniform := base
	uniform.Format = f
	uniform.Assignment = &goldeneye.FormatAssignment{
		Default: goldeneye.RoleFormats{Activations: f},
	}
	perLayer := base
	perLayer.Format = f
	perLayer.Assignment = &goldeneye.FormatAssignment{PerLayer: map[int]goldeneye.RoleFormats{}}
	for _, l := range sim.InjectableLayers() {
		perLayer.Assignment.PerLayer[l] = goldeneye.RoleFormats{Activations: f}
	}
	for _, bc := range []struct {
		name string
		cfg  goldeneye.CampaignConfig
	}{{"default_assignment", uniform}, {"per_layer_assignment", perLayer}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := bc.cfg
				cfg.Seed = uint64(i)
				if _, err := sim.RunCampaign(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(128*b.N)/b.Elapsed().Seconds(), "inj/s")
		})
	}
}

// BenchmarkMetricConvergence measures a KeepTrace campaign plus running-CI
// computation (the §IV-C convergence experiment).
func BenchmarkMetricConvergence(b *testing.B) {
	opts := exper.Options{ValSamples: 40, Injections: 100}
	for i := 0; i < b.N; i++ {
		if _, err := exper.Convergence(context.Background(), "mlp", numfmt.BFPe5m5(), -1, io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBFPBlockSize measures the block-size ablation (accuracy
// + metadata-fault campaign per block size), the design-choice study
// DESIGN.md §3 lists.
func BenchmarkAblationBFPBlockSize(b *testing.B) {
	opts := exper.Options{ValSamples: 40, Injections: 20, BatchSize: 20}
	for i := 0; i < b.N; i++ {
		if _, err := exper.AblationBFPBlock(context.Background(), "mlp", io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormatEmulate measures raw per-tensor quantization throughput of
// each family — the substrate cost behind Fig 3's dichotomy.
func BenchmarkFormatEmulate(b *testing.B) {
	formats := []numfmt.Format{
		numfmt.FP16(true), numfmt.FP8E4M3(true), numfmt.FxP16(),
		numfmt.INT8(), numfmt.BFPe5m5(), numfmt.AFPe5m2(),
		numfmt.Posit8(), numfmt.Posit16(), numfmt.LNS8(), numfmt.LNS16(), numfmt.NF4(),
	}
	x := tensor.Randn(rng.New(1), 1, 64, 1024)
	for _, f := range formats {
		f := f
		b.Run(f.Name(), func(b *testing.B) {
			b.SetBytes(int64(x.Len() * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Emulate(x)
			}
		})
	}
}

// BenchmarkEmulateFusedVsGeneric pits each family's fused single-pass
// kernel against the generic quantize→dequantize reference on the same
// tensor — the per-element cost model docs/PERFORMANCE.md documents. The
// two paths are bit-identical (FuzzEmulateFusedVsGeneric); throughput and
// allocs/op are the only things that differ.
func BenchmarkEmulateFusedVsGeneric(b *testing.B) {
	formats := []numfmt.Format{
		numfmt.FP16(true), numfmt.FxP16(), numfmt.INT8(),
		numfmt.BFPe5m5(), numfmt.AFPe5m2(),
		numfmt.Posit8(), numfmt.LNS8(), numfmt.NF4(),
	}
	x := tensor.Randn(rng.New(1), 1, 64, 1024)
	for _, f := range formats {
		f := f
		b.Run(f.Name()+"/fused", func(b *testing.B) {
			b.SetBytes(int64(x.Len() * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Emulate(x)
			}
		})
		generic := numfmt.Generic(f)
		b.Run(f.Name()+"/generic", func(b *testing.B) {
			b.SetBytes(int64(x.Len() * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				generic.Emulate(x)
			}
		})
	}
}

// BenchmarkMatMul measures the tensor substrate's matrix-multiply core.
func BenchmarkMatMul(b *testing.B) {
	r := rng.New(2)
	a := tensor.Randn(r, 1, 256, 256)
	c := tensor.Randn(r, 1, 256, 256)
	b.SetBytes(2 * 256 * 256 * 256) // FLOPs proxy
	for i := 0; i < b.N; i++ {
		a.MatMul(c)
	}
}

// BenchmarkMatMulAccum measures the accumulator-hook GEMM at a vit_tiny
// token-linear shape, (65×64)@(64×192): the plain kernel; fp16 and bf16
// accumulators rounding every partial sum (numfmt.AccumRounding, the AVX2
// tile where the CPU has it); fp16 with eight faults over distinct rows,
// as a batch-8 accumulator campaign schedules them, which splits those
// rows' reductions at the fault steps; the fp16 rounding through a
// per-element scalar closure (what every partial sum cost before row
// rounding); and a faults-only hook with one fault.
func BenchmarkMatMulAccum(b *testing.B) {
	r := rng.New(2)
	a := tensor.Randn(r, 1, 65, 64)
	w := tensor.Randn(r, 1, 64, 192)
	fp16 := numfmt.FP16(true)
	meta := numfmt.Metadata{Kind: numfmt.MetaNone}
	scalar := func(row []float32) {
		for i, v := range row {
			row[i] = float32(fp16.FromBits(fp16.ToBits(float64(v), meta), meta))
		}
	}
	stuck := func(float32) float32 { return 1e6 }
	var eight []tensor.AccumFault
	for s := 0; s < 8; s++ {
		eight = append(eight, tensor.AccumFault{Row: 8*s + 3, Col: 23*s + 5, Step: 7*s + 4, Apply: stuck})
	}
	for _, v := range []struct {
		name string
		hook *tensor.AccumHook
	}{
		{"plain", nil},
		{"fp16_row", &tensor.AccumHook{Quant: numfmt.AccumRounding(fp16)}},
		{"bf16_row", &tensor.AccumHook{Quant: numfmt.AccumRounding(numfmt.BFloat16(true))}},
		{"fp16_row_faults", &tensor.AccumHook{Quant: numfmt.AccumRounding(fp16), Faults: eight}},
		{"fp16_scalar", &tensor.AccumHook{Quant: tensor.RoundFunc(scalar)}},
		{"faults_only", &tensor.AccumHook{Faults: []tensor.AccumFault{{Row: 7, Col: 11, Step: 30, Apply: stuck}}}},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(2 * 65 * 64 * 192) // FLOPs proxy
			for i := 0; i < b.N; i++ {
				a.MatMulBias(w, nil, tensor.Epilogue{Accum: v.hook})
			}
		})
	}
}

// BenchmarkInference measures plain forward passes of each zoo model.
func BenchmarkInference(b *testing.B) {
	for _, name := range []string{"resnet_s", "resnet_m", "vit_tiny", "vit_small"} {
		name := name
		b.Run(name, func(b *testing.B) {
			sim, x, _ := benchSim(b, name)
			batch := x.Slice(0, 32)
			b.ResetTimer() // exclude first-run zoo training
			for i := 0; i < b.N; i++ {
				sim.Logits(batch, goldeneye.EmulationConfig{})
			}
		})
	}
}
