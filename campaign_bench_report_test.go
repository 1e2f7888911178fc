package goldeneye_test

// Campaign performance matrix: injections/sec of a resnet_s campaign
// across format family × kernel path × batch size × GOMAXPROCS, with the
// bit-identity guarantee re-checked on every cell. Gated behind an
// environment variable because the full matrix runs minutes of inference:
//
//	GOLDENEYE_BENCH_CAMPAIGN=BENCH_campaign.json go test -run TestCampaignBenchReport -v .
//
// `make bench` invokes exactly that; `make bench-smoke` runs a small
// matrix (GOLDENEYE_BENCH_SMOKE=1) that still asserts every row's
// bit_identical flag. GOLDENEYE_BENCH_PROCS overrides the GOMAXPROCS
// column list (comma-separated, default "1,4").
//
// Per format family, the first row is the serial reference: batch 1,
// GOMAXPROCS=1, activations emulated through numfmt.Generic — the literal
// quantize→dequantize round trip, for every family. All other
// rows run the fused kernels, and speedup_vs_serial is relative to that
// family's reference row. gomaxprocs/num_cpu are per row, not per file:
// rows are measured at different GOMAXPROCS settings, so a file-level
// value would misdescribe most of them. See docs/PERFORMANCE.md for how
// to read the output.

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"goldeneye"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/sampling"
	"goldeneye/internal/zoo"
)

// benchCampaignRow is one matrix cell of BENCH_campaign.json.
type benchCampaignRow struct {
	Format       string  `json:"format"`
	Family       string  `json:"family"`
	Kernel       string  `json:"kernel"` // "generic" (serial reference) or "fused"
	BatchSize    int     `json:"batch_size"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	Seconds      float64 `json:"seconds"`
	InjPerSecond float64 `json:"injections_per_second"`
	Speedup      float64 `json:"speedup_vs_serial"`
	BitIdentical bool    `json:"bit_identical"`
}

// benchSamplingSummary records the sampled-campaign section: how much of
// the fault space the estimator skipped and how far its SDC estimate landed
// from the exhaustive rate. benchdiff tracks the injections-saved trajectory
// across PRs from these fields and tolerates matrices that predate them.
type benchSamplingSummary struct {
	FaultSpace    int     `json:"fault_space_size"`
	Executed      int     `json:"injections_executed"`
	Pruned        int     `json:"injections_pruned"`
	SDCExhaustive float64 `json:"sdc_exhaustive"`
	SDCEstimate   float64 `json:"sdc_estimate"`
	SDCDelta      float64 `json:"sdc_delta_vs_exhaustive"`
	CIHalfWidth   float64 `json:"ci_half_width"`
}

type benchCampaignReport struct {
	Model      string                `json:"model"`
	Layer      int                   `json:"layer"`
	Injections int                   `json:"injections"`
	PoolSize   int                   `json:"pool_size"`
	Rows       []benchCampaignRow    `json:"rows"`
	Sampling   *benchSamplingSummary `json:"sampling,omitempty"`
}

// speedupVsSerial guards the ratio against zero/negative timings (a
// sub-millisecond smoke campaign can round to zero seconds).
func speedupVsSerial(baseSec, sec float64) float64 {
	if baseSec <= 0 || sec <= 0 {
		return 0
	}
	return baseSec / sec
}

// reportsEqual is the non-fatal core of reportsIdentical: integer
// aggregates plus the float64 Welford moments, which diverge on any
// single-bit difference anywhere in the campaign.
func reportsEqual(got, want *goldeneye.CampaignReport) bool {
	return got.Injections == want.Injections &&
		got.Mismatches == want.Mismatches &&
		got.NonFinite == want.NonFinite &&
		got.Detected == want.Detected &&
		got.Aborted == want.Aborted &&
		got.DeltaLoss == want.DeltaLoss &&
		got.MismatchStat == want.MismatchStat
}

// parseProcList parses GOLDENEYE_BENCH_PROCS ("1,4,8") with def as the
// fallback for empty or unusable input.
func parseProcList(s string, def []int) []int {
	if s == "" {
		return def
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err == nil && p >= 1 {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return def
	}
	return out
}

func TestCampaignBenchReport(t *testing.T) {
	out := os.Getenv("GOLDENEYE_BENCH_CAMPAIGN")
	if out == "" {
		t.Skip("set GOLDENEYE_BENCH_CAMPAIGN=<path> to run the campaign performance matrix")
	}
	smoke := os.Getenv("GOLDENEYE_BENCH_SMOKE") != ""

	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)

	injections, poolN := 240, 64
	batches := []int{1, 8, 32}
	procs := parseProcList(os.Getenv("GOLDENEYE_BENCH_PROCS"), []int{1, 4})
	if smoke {
		injections, poolN = 12, 8
		batches = []int{1, 8}
		procs = parseProcList(os.Getenv("GOLDENEYE_BENCH_PROCS"), []int{1, 2})
	}

	model, ds, err := zoo.Pretrained("resnet_s")
	if err != nil {
		t.Fatal(err)
	}
	sim := goldeneye.Wrap(model, ds.ValX)
	pool, err := goldeneye.NewEvalPool(ds.ValX.Slice(0, poolN), ds.ValY[:poolN], 0)
	if err != nil {
		t.Fatal(err)
	}
	report := benchCampaignReport{
		Model:      "resnet_s",
		Layer:      sim.InjectableLayers()[2],
		Injections: injections,
		PoolSize:   pool.Len(),
	}

	// run injects in format; act is the activation role, format itself
	// or the reference row's numfmt.Generic(format).
	run := func(format, act numfmt.Format, batch int) (*goldeneye.CampaignReport, float64) {
		start := time.Now()
		rep, err := sim.RunCampaign(t.Context(), goldeneye.CampaignConfig{
			Format:     format,
			Site:       goldeneye.SiteValue,
			Target:     goldeneye.TargetNeuron,
			Layer:      report.Layer,
			Injections: injections,
			Seed:       97,
			Pool:       pool,
			BatchSize:  batch,
			UseRanger:  true,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: act}},
		})
		if err != nil {
			t.Fatalf("%s batch %d: %v", format.Name(), batch, err)
		}
		return rep, time.Since(start).Seconds()
	}

	families := []struct {
		family string
		format numfmt.Format
	}{
		{"fp", numfmt.FP16(true)},
		{"int", numfmt.INT8()},
		{"bfp", numfmt.BFPe5m5()},
		{"afp", numfmt.AFPe5m2()},
	}
	for _, fam := range families {
		// Serial generic reference row.
		runtime.GOMAXPROCS(1)
		ref, refSec := run(fam.format, numfmt.Generic(fam.format), 1)
		report.Rows = append(report.Rows, benchCampaignRow{
			Format:       fam.format.Name(),
			Family:       fam.family,
			Kernel:       "generic",
			BatchSize:    1,
			GoMaxProcs:   1,
			NumCPU:       runtime.NumCPU(),
			Seconds:      refSec,
			InjPerSecond: float64(injections) / refSec,
			Speedup:      1,
			BitIdentical: true,
		})
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			for _, batch := range batches {
				rep, sec := run(fam.format, fam.format, batch)
				identical := reportsEqual(rep, ref)
				if !identical {
					t.Errorf("%s: fused procs=%d batch=%d diverges from the serial generic reference",
						fam.format.Name(), p, batch)
				}
				row := benchCampaignRow{
					Format:       fam.format.Name(),
					Family:       fam.family,
					Kernel:       "fused",
					BatchSize:    batch,
					GoMaxProcs:   p,
					NumCPU:       runtime.NumCPU(),
					Seconds:      sec,
					InjPerSecond: float64(injections) / sec,
					Speedup:      speedupVsSerial(refSec, sec),
					BitIdentical: identical,
				}
				report.Rows = append(report.Rows, row)
				t.Logf("%-10s procs=%d batch=%2d: %7.1f inj/s (%.2fx serial generic)",
					fam.format.Name(), p, batch, row.InjPerSecond, row.Speedup)
			}
		}
	}
	runtime.GOMAXPROCS(origProcs)

	// Sampled-campaign summary: one exhaustive and one stratified-sampled
	// run at the same seed, so BENCH_campaign.json carries the
	// injections-saved trajectory and the estimate-vs-exhaustive delta.
	{
		base := goldeneye.CampaignConfig{
			Format:     numfmt.FP16(true),
			Site:       goldeneye.SiteValue,
			Target:     goldeneye.TargetNeuron,
			Layer:      report.Layer,
			Injections: injections,
			Seed:       97,
			Pool:       pool,
			UseRanger:  true,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
		}
		exh, err := sim.RunCampaign(t.Context(), base)
		if err != nil {
			t.Fatalf("exhaustive reference: %v", err)
		}
		sampled := base
		sampled.Sampling = &sampling.Plan{Fraction: 0.25, Prune: true}
		est, err := sim.RunCampaign(t.Context(), sampled)
		if err != nil {
			t.Fatalf("sampled campaign: %v", err)
		}
		sr := est.Sampling
		// A smoke-sized fault space can leave a stratum with zero
		// observations, making the interval infinite — not a JSON value.
		// benchdiff tolerates a missing sampling section, so omit it
		// rather than record an unusable estimate.
		if hw := sr.CIHalfWidth(); math.IsInf(hw, 0) || math.IsNaN(hw) || math.IsNaN(sr.SDCRate()) {
			t.Logf("sampling: estimate not finite at %d executed of %d (smoke-sized sample); summary omitted",
				sr.ExecutedTotal(), sr.FaultSpace())
		} else {
			report.Sampling = &benchSamplingSummary{
				FaultSpace:    sr.FaultSpace(),
				Executed:      sr.ExecutedTotal(),
				Pruned:        sr.PrunedTotal(),
				SDCExhaustive: exh.MismatchRate(),
				SDCEstimate:   sr.SDCRate(),
				SDCDelta:      sr.SDCRate() - exh.MismatchRate(),
				CIHalfWidth:   hw,
			}
			t.Logf("sampling: executed %d of %d (%d pruned), SDC %.4f vs exhaustive %.4f (±%.4f)",
				sr.ExecutedTotal(), sr.FaultSpace(), sr.PrunedTotal(),
				sr.SDCRate(), exh.MismatchRate(), hw)
		}
	}

	// The multi-core throughput target: with ≥4 real cores, at least one
	// fused row at GOMAXPROCS≥4 must clear 5× its family's serial generic
	// reference. Hosts without the cores (or matrices that never ran a
	// procs≥4 column) record the matrix but log instead of failing — the
	// speedup needs hardware parallelism that isn't there to measure.
	best, measured := 0.0, false
	for _, row := range report.Rows {
		if row.Kernel == "fused" && row.GoMaxProcs >= 4 {
			measured = true
			if row.Speedup > best {
				best = row.Speedup
			}
		}
	}
	switch {
	case !smoke && measured && runtime.NumCPU() >= 4 && best < 5:
		t.Errorf("best fused speedup at GOMAXPROCS>=4 is %.2fx, below the 5x target on a %d-CPU host",
			best, runtime.NumCPU())
	case measured && best < 5:
		t.Logf("warning: best fused speedup at GOMAXPROCS>=4 is %.2fx (<5x target); "+
			"host has %d CPUs, so the matrix lacks the cores the target assumes",
			best, runtime.NumCPU())
	case !measured:
		t.Logf("note: no fused row ran at GOMAXPROCS>=4 (procs=%v); 5x target not evaluated", procs)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
