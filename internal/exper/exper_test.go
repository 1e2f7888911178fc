package exper

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"goldeneye/internal/dse"
	"goldeneye/internal/numfmt"
)

// tinyOptions keeps experiment tests fast; the full-scale parameters run
// from cmd/experiments and the bench harness.
func tinyOptions() Options {
	return Options{ValSamples: 80, Injections: 30, BatchSize: 20}
}

func TestTable1Renders(t *testing.T) {
	var b strings.Builder
	rows := Table1(&b)
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	if !strings.Contains(b.String(), "FP16 w/ DN") {
		t.Fatal("rendered output missing rows")
	}
}

func TestTable2AllSupported(t *testing.T) {
	var b strings.Builder
	rows := Table2(&b)
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Supported {
			t.Errorf("feature %q probes as unsupported", r.Feature)
		}
	}
	if strings.Contains(b.String(), "✗") {
		t.Fatal("rendered table contains unsupported marks")
	}
}

func TestFig3Shapes(t *testing.T) {
	// The timing dichotomy needs a model with real tensor volume; the MLP
	// finishes in microseconds and drowns in noise. Wall-clock ratios on a
	// loaded CI host can still transiently invert, so the dichotomy check
	// re-measures before declaring failure.
	const attempts = 3
	var lastErrs []string
	for attempt := 0; attempt < attempts; attempt++ {
		generic := numfmt.ReadOpCounts().GenericKernels
		rows, err := Fig3(context.Background(), []string{"resnet_s"}, 3, nil, tinyOptions())
		if err != nil {
			t.Fatal(err)
		}
		// The BFP/AFP configurations run the code-based path.
		if numfmt.ReadOpCounts().GenericKernels == generic {
			t.Fatal("Fig 3 ran no generic quantize→dequantize kernel")
		}
		bySlow := make(map[string]float64)
		for _, r := range rows {
			if r.EI == "off" {
				bySlow[r.Config] = r.Slowdown
			}
			if r.AvgTime <= 0 {
				t.Fatalf("non-positive timing for %v", r)
			}
		}
		if bySlow["native_fp32"] != 1.0 {
			t.Fatalf("native baseline slowdown = %v", bySlow["native_fp32"])
		}
		// The Fig 3 dichotomy: BFP/AFP (code-based path) slower than the
		// arithmetic-path formats.
		lastErrs = nil
		if bySlow["bfp_e5m5"] <= bySlow["fp16"] {
			lastErrs = append(lastErrs, fmt.Sprintf("BFP (%.2fx) should be slower than FP16 (%.2fx)",
				bySlow["bfp_e5m5"], bySlow["fp16"]))
		}
		if bySlow["afp_e5m2"] <= bySlow["int8"] {
			lastErrs = append(lastErrs, fmt.Sprintf("AFP (%.2fx) should be slower than INT8 (%.2fx)",
				bySlow["afp_e5m2"], bySlow["int8"]))
		}
		if lastErrs == nil {
			return
		}
		t.Logf("attempt %d: dichotomy inverted (%s); re-measuring", attempt+1, strings.Join(lastErrs, "; "))
	}
	for _, e := range lastErrs {
		t.Error(e)
	}
}

func TestFig4Shapes(t *testing.T) {
	rows, err := Fig4(context.Background(), []string{"mlp"}, nil, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	get := func(family string, bits int) (float64, bool) {
		for _, r := range rows {
			if r.Family == family && r.Bits == bits {
				return r.Accuracy, true
			}
		}
		return 0, false
	}
	baseline, ok := get("native", 32)
	if !ok || baseline < 0.6 {
		t.Fatalf("baseline accuracy %v", baseline)
	}
	// High widths preserve accuracy for every family.
	for _, fam := range []string{"fp", "fxp", "int", "afp"} {
		acc, ok := get(fam, 16)
		if !ok {
			t.Fatalf("missing %s@16", fam)
		}
		if acc < baseline-0.05 {
			t.Errorf("%s@16 lost too much accuracy: %.3f vs %.3f", fam, acc, baseline)
		}
	}
	// FP at 4 bits (e2m1) collapses.
	if acc, ok := get("fp", 4); ok && acc > baseline-0.2 {
		t.Errorf("fp@4 should collapse, got %.3f (baseline %.3f)", acc, baseline)
	}
}

func TestFig6Shapes(t *testing.T) {
	results, err := Fig6(context.Background(), []string{"mlp"}, []dse.Family{dse.FamilyFP, dse.FamilyAFP}, 0.02, nil, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for _, res := range results {
		if len(res.Rows) == 0 || len(res.Rows) > 16 {
			t.Fatalf("%s/%s visited %d nodes", res.Model, res.Family, len(res.Rows))
		}
		if res.Best == nil {
			t.Fatalf("%s/%s found no acceptable point", res.Model, res.Family)
		}
		if res.Best.Bits >= 32 {
			t.Errorf("%s/%s best width %d did not shorten", res.Model, res.Family, res.Best.Bits)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	o := tinyOptions()
	o.Injections = 40
	rows, err := Fig7(context.Background(), []string{"mlp"}, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate mean ΔLoss per format × site.
	agg := make(map[string]*struct {
		sum float64
		n   int
	})
	for _, r := range rows {
		key := r.Format + "/" + r.Site
		a := agg[key]
		if a == nil {
			a = &struct {
				sum float64
				n   int
			}{}
			agg[key] = a
		}
		a.sum += r.MeanDelta
		a.n++
	}
	mean := func(key string) float64 {
		a := agg[key]
		if a == nil || a.n == 0 {
			t.Fatalf("missing aggregate %q", key)
		}
		return a.sum / float64(a.n)
	}
	// Fig 7's headline: metadata injections are far more egregious than
	// value injections, especially for BFP.
	if mean("bfp_e5m5_b0/metadata") <= mean("bfp_e5m5_b0/value") {
		t.Errorf("BFP metadata ΔLoss (%v) should dominate value ΔLoss (%v)",
			mean("bfp_e5m5_b0/metadata"), mean("bfp_e5m5_b0/value"))
	}
	if mean("afp_e5m2/metadata") <= mean("afp_e5m2/value") {
		t.Errorf("AFP metadata ΔLoss (%v) should dominate value ΔLoss (%v)",
			mean("afp_e5m2/metadata"), mean("afp_e5m2/value"))
	}
}

func TestFig9Shapes(t *testing.T) {
	o := tinyOptions()
	o.Injections = 15
	rows, err := Fig9(context.Background(), "mlp", 0.05, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no trade-off points produced")
	}
	families := make(map[string]bool)
	for _, r := range rows {
		families[r.Family] = true
		if r.Accuracy <= 0 || r.Accuracy > 1 {
			t.Fatalf("implausible accuracy %v", r.Accuracy)
		}
		if r.MeanDelta < 0 {
			t.Fatalf("negative ΔLoss %v", r.MeanDelta)
		}
	}
	if !families["bfp"] || !families["afp"] {
		t.Fatalf("expected both BFP and AFP points, got %v", families)
	}
}

func TestConvergenceShapes(t *testing.T) {
	o := tinyOptions()
	o.Injections = 200
	rows, err := Convergence(context.Background(), "mlp", numfmt.BFPe5m5(), -1, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("only %d checkpoints", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Injections != 200 {
		t.Fatalf("final checkpoint at %d injections", last.Injections)
	}
	// §IV-C: the continuous ΔLoss metric converges faster (tighter
	// relative CI) than binary mismatch counting.
	if last.DeltaLossRelCI >= last.MismatchRelCI {
		t.Errorf("ΔLoss relCI %.4f should be tighter than mismatch relCI %.4f",
			last.DeltaLossRelCI, last.MismatchRelCI)
	}
}

func TestPaperNameMapping(t *testing.T) {
	tests := map[string]string{
		"resnet_s":  "ResNet18*",
		"resnet_m":  "ResNet50*",
		"vit_tiny":  "DeiT-tiny*",
		"vit_small": "DeiT-base*",
		"mlp":       "mlp",
	}
	for give, want := range tests {
		if got := paperName(give); got != want {
			t.Errorf("paperName(%q) = %q, want %q", give, got, want)
		}
	}
}

func TestAblationBFPBlockShapes(t *testing.T) {
	o := tinyOptions()
	o.Injections = 40
	rows, err := AblationBFPBlock(context.Background(), "mlp", nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// Finer blocks cannot lose accuracy relative to whole-tensor sharing,
	// and must cost more metadata register bits.
	whole, finest := rows[0], rows[len(rows)-1]
	if finest.Accuracy < whole.Accuracy-0.02 {
		t.Errorf("fine blocks (%.3f) should not underperform whole-tensor (%.3f)",
			finest.Accuracy, whole.Accuracy)
	}
	if finest.MetaRegBits <= whole.MetaRegBits {
		t.Errorf("fine blocks must cost more metadata bits: %d vs %d",
			finest.MetaRegBits, whole.MetaRegBits)
	}
}

func TestErrorModelsShapes(t *testing.T) {
	o := tinyOptions()
	o.Injections = 60
	rows, err := ErrorModels(context.Background(), "mlp", numfmt.BFPe5m5(), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	get := func(kind, site string) float64 {
		for _, r := range rows {
			if r.Kind == kind && r.Site == site {
				return r.MeanDelta
			}
		}
		t.Fatalf("missing %s/%s", kind, site)
		return 0
	}
	// Burst (every element) must dominate single-element models at the
	// value site.
	if get("burst", "value") <= get("flip", "value") {
		t.Errorf("burst (%v) should dominate flip (%v)",
			get("burst", "value"), get("flip", "value"))
	}
	// A flip always changes the target bit; a stuck-at changes it only
	// when the stored bit disagrees. So flip's expected damage is at
	// least comparable to the worse stuck-at direction (which direction
	// is worse depends on the register's resting value).
	worstStuck := get("stuck-at-0", "metadata")
	if s1 := get("stuck-at-1", "metadata"); s1 > worstStuck {
		worstStuck = s1
	}
	if get("flip", "metadata") < worstStuck/2 {
		t.Errorf("metadata flip (%v) implausibly mild vs worst stuck-at (%v)",
			get("flip", "metadata"), worstStuck)
	}
}

func TestSecurityFGSMShapes(t *testing.T) {
	o := tinyOptions()
	rows, err := SecurityFGSM(context.Background(), "mlp", []float64{0.2}, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7 formats", len(rows))
	}
	for _, r := range rows {
		if r.Format == "native_fp32" {
			// The attack must actually degrade the native model.
			if r.AttackDrop <= 0.05 {
				t.Fatalf("FGSM at ε=0.2 barely hurt the native model: drop %.3f", r.AttackDrop)
			}
		}
		if r.AdvAcc < 0 || r.AdvAcc > 1 || r.CleanAcc < 0 || r.CleanAcc > 1 {
			t.Fatalf("implausible accuracies %+v", r)
		}
	}
}

func TestFGSMLeavesModelUntouched(t *testing.T) {
	sim, ds, err := loadSim("resnet_s", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var before [][]float32
	for _, p := range sim.Model().Params() {
		before = append(before, append([]float32(nil), p.Value.Data()...))
	}
	FGSM(sim.Model(), ds.ValX.Slice(0, 8), ds.ValY[:8], 0.1)
	for i, p := range sim.Model().Params() {
		for j, v := range p.Value.Data() {
			if v != before[i][j] {
				t.Fatalf("FGSM mutated %s (incl. frozen stats)", p.Name)
			}
		}
	}
}

func TestEmergingShapes(t *testing.T) {
	o := tinyOptions()
	rows, err := Emerging(context.Background(), []string{"mlp"}, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]float64)
	for _, r := range rows {
		byName[r.Format] = r.Accuracy
	}
	// 16-bit emerging formats must match the classic ones at this scale.
	for _, f := range []string{"posit16_es1", "lns_7_8"} {
		if byName[f] < byName["fp16"]-0.05 {
			t.Errorf("%s (%.3f) should track fp16 (%.3f) at 16 bits", f, byName[f], byName["fp16"])
		}
	}
	// NF4 must beat uniform INT4 (the codebook's whole point).
	if byName["nf4"] < byName["int4"]-0.02 {
		t.Errorf("nf4 (%.3f) should be at least INT4-competitive (%.3f)", byName["nf4"], byName["int4"])
	}
}

func TestProtectionShapes(t *testing.T) {
	o := tinyOptions()
	o.Injections = 120
	rows, err := Protection(context.Background(), "mlp", nil, o)
	if err != nil {
		t.Fatal(err)
	}
	get := func(target, protection string) ProtectionRow {
		for _, r := range rows {
			if r.Target == target && r.Protection == protection {
				return r
			}
		}
		t.Fatalf("missing %s/%s", target, protection)
		return ProtectionRow{}
	}
	// The ranger's clamp must not worsen damage, for either target.
	for _, target := range []string{"neuron", "weight"} {
		if get(target, "ranger+clamp").MeanDelta > get(target, "none").MeanDelta {
			t.Errorf("%s: ranger increased ΔLoss", target)
		}
	}
	// DMR detects some transient faults and no persistent ones; ABFT's
	// sealed weight checksums catch exactly the corruption DMR misses.
	if get("neuron", "dmr").Coverage <= 0 {
		t.Error("DMR should detect some neuron faults")
	}
	if get("weight", "dmr").Coverage != 0 {
		t.Errorf("DMR cannot detect weight faults, got coverage %.3f",
			get("weight", "dmr").Coverage)
	}
	if get("weight", "abft").Coverage <= 0 {
		t.Error("ABFT should detect weight corruption against its sealed checksums")
	}
	// The unprotected baseline reports no coverage; every pipeline's
	// false-positive rate on the fault-free pool is zero (calibrated
	// detectors never flag the pool they calibrated on).
	for _, target := range []string{"neuron", "weight"} {
		if get(target, "none").Coverage != 0 {
			t.Error("coverage must be zero without a pipeline")
		}
		for _, prot := range []string{"ranger+clamp", "sentinel", "dmr", "abft", "dmr+reexec"} {
			if fp := get(target, prot).FPRate; fp != 0 {
				t.Errorf("%s/%s: false-positive rate %.4f, want 0", target, prot, fp)
			}
		}
	}
}

func TestBitSensitivityShapes(t *testing.T) {
	o := tinyOptions()
	o.Injections = 800

	fp16, err := BitSensitivity(context.Background(), "mlp", numfmt.FP16(true), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	bfp, err := BitSensitivity(context.Background(), "mlp", numfmt.BFPe5m5(), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	byBit := func(rows []BitSensRow, role string) (worst BitSensRow) {
		for _, r := range rows {
			if (role == "" || r.Role == role) && r.MeanDelta >= worst.MeanDelta {
				worst = r
			}
		}
		return worst
	}
	// §II-B: FP's vulnerable bits are exponent bits; the overall worst FP16
	// bit must be an exponent bit, far above its sign bit.
	worstFP := byBit(fp16, "")
	if worstFP.Role != "exponent" {
		t.Errorf("worst FP16 bit is %d (%s), want an exponent bit", worstFP.Bit, worstFP.Role)
	}
	signFP := byBit(fp16, "sign")
	if signFP.MeanDelta >= worstFP.MeanDelta {
		t.Errorf("FP16 sign (%v) should be far below worst exponent (%v)",
			signFP.MeanDelta, worstFP.MeanDelta)
	}
	// §IV-C: "the sign bit in BFP is more vulnerable than in FP" — relative
	// to its own format's worst bit, BFP's sign carries far more weight.
	signBFP := byBit(bfp, "sign")
	worstBFP := byBit(bfp, "")
	relBFP := signBFP.MeanDelta / worstBFP.MeanDelta
	relFP := signFP.MeanDelta / worstFP.MeanDelta
	if relBFP <= relFP {
		t.Errorf("BFP sign relative weight (%.4f) should exceed FP16's (%.6f)", relBFP, relFP)
	}
}

func TestWeightsVsNeuronsShapes(t *testing.T) {
	o := tinyOptions()
	o.Injections = 60
	rows, err := WeightsVsNeurons(context.Background(), "mlp", numfmt.FP16(true), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows)%2 != 0 {
		t.Fatalf("%d rows, want a weight/neuron pair per layer", len(rows))
	}
	for _, r := range rows {
		if r.MeanDelta < 0 || r.MismatchRate < 0 || r.MismatchRate > 1 {
			t.Fatalf("implausible row %+v", r)
		}
		if r.Target != "weight" && r.Target != "neuron" {
			t.Fatalf("unexpected target %q", r.Target)
		}
	}
}
