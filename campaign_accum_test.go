package goldeneye_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/zoo"
)

// mixedAccumAssignment is the walkthrough configuration of the docs:
// bfloat16 weights, FP8 activations, FP32 accumulate.
func mixedAccumAssignment() *goldeneye.FormatAssignment {
	return &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{
		Weights:     numfmt.BFloat16(true),
		Activations: numfmt.FP8E4M3(true),
		Accumulator: numfmt.FP32(true),
	}}
}

// The accumulator-site guarantee: under one seed, serial, batched, and
// parallel campaigns agree bit for bit — integer aggregates, Welford
// moments (serial/batched), and every trace entry.
func TestAccumCampaignBitIdenticalAcrossPaths(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	cfg := goldeneye.CampaignConfig{
		Assignment: mixedAccumAssignment(),
		Site:       goldeneye.SiteAccum,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: 23, // not a batch multiple: exercises the ragged tail
		Seed:       17,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		KeepTrace:  true,
	}
	serial, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Mismatches == 0 && serial.MeanDeltaLoss() == 0 {
		t.Fatal("accumulator faults had no observable effect at all; injection is likely not reaching the reduction")
	}

	bcfg := cfg
	bcfg.BatchSize = 5
	batched, err := sim.RunCampaign(context.Background(), bcfg)
	if err != nil {
		t.Fatal(err)
	}
	reportsIdentical(t, "accum batched", batched, serial)

	par, err := goldeneye.RunCampaignParallel(context.Background(), bcfg, 3, mlpBuilder(t))
	if err != nil {
		t.Fatal(err)
	}
	if par.Injections != serial.Injections || par.Mismatches != serial.Mismatches ||
		par.NonFinite != serial.NonFinite || par.Detected != serial.Detected {
		t.Fatalf("accum parallel aggregates diverge: %+v vs %+v", par.CampaignResult, serial.CampaignResult)
	}
	for i := range serial.Trace {
		a, b := par.Trace[i], serial.Trace[i]
		if a.Fault != b.Fault || a.Sample != b.Sample || a.Mismatch != b.Mismatch || a.DeltaLoss != b.DeltaLoss {
			t.Fatalf("accum parallel trace diverges at %d: %+v vs %+v", i, a, b)
		}
	}
}

// A transformer's token-level linears see (N·T, D) inputs, so a fault drawn
// over a sample's whole T·out output must land in that sample's token row.
// Accumulator campaigns on every block-0 linear of vit_tiny run without a
// single abort, and serial, batched and parallel runs agree bit for bit.
func TestAccumCampaignTokenLinears(t *testing.T) {
	sim, pool := loadSim(t, "vit_tiny")
	x, y := pool.subset(8)
	build := func() (*goldeneye.Simulator, error) {
		m, ds, err := zoo.Pretrained("vit_tiny")
		if err != nil {
			return nil, err
		}
		return goldeneye.NewSimulator(m, ds.ValX.Slice(0, 1))
	}
	linears := 0
	for _, l := range sim.Layers() {
		if l.Kind != nn.KindLinear || !strings.Contains(l.Name, ".blk0.") {
			continue
		}
		linears++
		cfg := goldeneye.CampaignConfig{
			Format:     numfmt.FP16(true),
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
			Site:       goldeneye.SiteAccum,
			Target:     goldeneye.TargetNeuron,
			Layer:      l.Index,
			Injections: 13,
			Seed:       uint64(l.Index),
			Pool:       &goldeneye.EvalPool{X: x, Y: y},
			KeepTrace:  true,
		}
		serial, err := sim.RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if serial.Aborted != 0 || serial.Injections != cfg.Injections {
			t.Fatalf("%s: %d of %d injections aborted", l.Name, serial.Aborted, cfg.Injections)
		}
		bcfg := cfg
		bcfg.BatchSize = 4
		batched, err := sim.RunCampaign(context.Background(), bcfg)
		if err != nil {
			t.Fatalf("%s batched: %v", l.Name, err)
		}
		reportsIdentical(t, l.Name+" batched", batched, serial)
		par, err := goldeneye.RunCampaignParallel(context.Background(), bcfg, 2, build)
		if err != nil {
			t.Fatalf("%s parallel: %v", l.Name, err)
		}
		if par.Injections != serial.Injections || par.Mismatches != serial.Mismatches || par.Aborted != 0 {
			t.Fatalf("%s parallel aggregates diverge: %+v vs %+v", l.Name, par.CampaignResult, serial.CampaignResult)
		}
		for i := range serial.Trace {
			a, b := par.Trace[i], serial.Trace[i]
			if a.Fault != b.Fault || a.Sample != b.Sample || a.Mismatch != b.Mismatch || a.DeltaLoss != b.DeltaLoss {
				t.Fatalf("%s parallel trace diverges at %d: %+v vs %+v", l.Name, i, a, b)
			}
		}
	}
	if linears != 4 {
		t.Fatalf("found %d block-0 linears, want qkv, proj, fc1 and fc2", linears)
	}
}

// Without an accumulator role the faults land on the native float32
// register — the legacy-format campaign shape with -site accum.
func TestAccumCampaignNativeRegister(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(6)
	cfg := goldeneye.CampaignConfig{
		Format:     numfmt.FP16(true),
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: numfmt.FP16(true)}},
		Site:       goldeneye.SiteAccum,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 16,
		Seed:       5,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		KeepTrace:  true,
	}
	serial, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.BatchSize = 4
	batched, err := sim.RunCampaign(context.Background(), bcfg)
	if err != nil {
		t.Fatal(err)
	}
	reportsIdentical(t, "accum native register", batched, serial)
	for _, out := range serial.Trace {
		f := out.Fault
		if f.Site != goldeneye.SiteAccum || f.Bit < 0 || f.Bit >= 32 {
			t.Fatalf("native-register fault outside float32 bit range: %+v", f)
		}
		if f.Step < 0 {
			t.Fatalf("fault drew a negative reduction step: %+v", f)
		}
	}
}

// Accumulator-site campaigns on structurally unsuitable configurations are
// rejected up front with a typed *ConfigError.
func TestAccumCampaignValidation(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(4)
	base := goldeneye.CampaignConfig{
		Assignment: mixedAccumAssignment(),
		Site:       goldeneye.SiteAccum,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[0],
		Injections: 4,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
	}

	// A layer without a GEMM has no accumulator: the error is typed and
	// names the offending layer's kind.
	var reluLayer = -1
	for _, l := range sim.Layers() {
		if l.Kind == nn.KindActivation {
			reluLayer = l.Index
			break
		}
	}
	if reluLayer < 0 {
		t.Fatal("mlp has no activation layer?")
	}
	noGEMM := base
	noGEMM.Layer = reluLayer
	_, err := sim.RunCampaign(context.Background(), noGEMM)
	var cfgErr *goldeneye.ConfigError
	if err == nil || !errors.As(err, &cfgErr) || cfgErr.Field != "Layer" ||
		!strings.Contains(err.Error(), "GEMM-backed") || !strings.Contains(err.Error(), "activation") {
		t.Fatalf("non-GEMM layer: got %v, want *ConfigError{Layer} naming the layer kind", err)
	}

	weight := base
	weight.Target = goldeneye.TargetWeight
	if _, err := sim.RunCampaign(context.Background(), weight); err == nil ||
		!errors.As(err, &cfgErr) || cfgErr.Field != "Target" {
		t.Fatalf("weight target: got %v, want *ConfigError{Target}", err)
	}

	burst := base
	burst.FaultKind = inject.KindBurst
	if _, err := sim.RunCampaign(context.Background(), burst); err == nil ||
		!errors.As(err, &cfgErr) || cfgErr.Field != "FaultKind" {
		t.Fatalf("burst kind: got %v, want *ConfigError{FaultKind}", err)
	}

	meta := base
	meta.Assignment = &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{
		Accumulator: numfmt.INT8(), // scale metadata: no register analogue
	}}
	if _, err := sim.RunCampaign(context.Background(), meta); err == nil ||
		!errors.As(err, &cfgErr) || cfgErr.Field != "Assignment" {
		t.Fatalf("metadata accumulator: got %v, want *ConfigError{Assignment}", err)
	}
}

// ABFT checks the GEMM invariant itself, so it must catch a sizable share
// of accumulator-interior corruptions; detection must also survive the
// batched path bit-identically.
func TestAccumCampaignABFTDetection(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	dets, err := goldeneye.ParseDetectors("abft")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldeneye.CampaignConfig{
		Assignment: mixedAccumAssignment(),
		Site:       goldeneye.SiteAccum,
		Target:     goldeneye.TargetNeuron,
		Layer:      sim.InjectableLayers()[1],
		Injections: 40,
		Seed:       29,
		Pool:       &goldeneye.EvalPool{X: x, Y: y},
		Detectors:  dets,
		KeepTrace:  true,
	}
	serial, err := sim.RunCampaign(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Detected == 0 {
		t.Fatal("ABFT detected no accumulator faults at all")
	}
	// Every corrupting injection perturbs a GEMM output, which is exactly
	// the invariant ABFT checks: coverage of mismatching runs should be
	// substantial (well above a coin flip on this tiny model).
	var mismatchedDetected, mismatched int
	for _, out := range serial.Trace {
		if out.Mismatch {
			mismatched++
			if out.Detected {
				mismatchedDetected++
			}
		}
	}
	if mismatched > 0 && mismatchedDetected*2 < mismatched {
		t.Fatalf("ABFT caught only %d/%d mismatching accumulator faults", mismatchedDetected, mismatched)
	}

	bcfg := cfg
	bcfg.BatchSize = 8
	batched, err := sim.RunCampaign(context.Background(), bcfg)
	if err != nil {
		t.Fatal(err)
	}
	reportsIdentical(t, "accum abft batched", batched, serial)
}

// Accumulator emulation is pinned with constants, not only compared across
// campaign paths: the logits of vit_tiny and resnet_s with each metadata-free
// accumulator family (FP with and without denormals, FxP, posit), and the
// report wire bytes of accumulator-site campaigns on a token-level linear
// and on a conv (whose bias add is the register's last rounded step), with
// and without an accumulator format.
func TestAccumEmulationPinned(t *testing.T) {
	logits := map[string]string{
		"resnet_s/fp16":      "700926ae0c11bce335aafe222b0baae370ee2f611f5d1cf40043e6156abf4186",
		"resnet_s/bf16":      "4c54fb5b0c2fac2594b2fbd41e523b25314f15c5c54518ac968c4f236f285bd0",
		"resnet_s/fp32_nodn": "3cdfddb285859a5dc2a1f022038245ea525a451295ba470823994b6995cd89c0",
		"resnet_s/fxp16":     "b7330429f372b8ad8c73dc13afacf87dd7d27ef926822b0dd62f6b92979bbc16",
		"resnet_s/posit8":    "fb3f40c0abcf985ec55fd03af41f7c287ea15cfa7a2ccbb215f969de15181e36",
		"vit_tiny/fp16":      "d2140f49e9912f673fd5943ddb3edb03c87336f40a207e5a4ee5e85f34c42ffd",
		"vit_tiny/bf16":      "d6c260c06f3934af46cc4a0834dbf7ccb3b4bf6b0f9eb7c7bdc224ef6553fe83",
		"vit_tiny/fp32_nodn": "a15b1b06c71d33b0743a2528b07d840b15b8de8abccc6cb08caea5238b9a5a15",
		"vit_tiny/fxp16":     "299e06455603f30be88ae61fa6d6f2d4748f632f414bbb7b22ccd3b0cf899421",
		"vit_tiny/posit8":    "76897b9411557890d092ea686c0a7b3aac4cb56673a97588b9e491a3c99da799",
	}
	for _, model := range []string{"resnet_s", "vit_tiny"} {
		sim, pool := loadSim(t, model)
		x, _ := pool.subset(8)
		for _, name := range []string{"fp16", "bf16", "fp32_nodn", "fxp16", "posit8"} {
			roles, err := goldeneye.ParseRoleFormats("acc:" + name)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var buf [4]byte
			for _, v := range sim.Logits(x, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{Default: roles}}).Data() {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
				h.Write(buf[:])
			}
			key := model + "/" + name
			if got := hex.EncodeToString(h.Sum(nil)); got != logits[key] {
				t.Errorf("%s: logits sha256 %s, pinned %s", key, got, logits[key])
			}
		}
	}

	campaigns := map[string]string{
		"vit_tiny.blk0.mlp.fc1":     "efb413572af56f7dc7a964f0083fcfa8b70e0c65ac459eb345b40339cf7755f0",
		"vit_tiny.blk0.mlp.fc1/acc": "c77c28e29c5ad9f3841d782636bff71a4626e760c806189033b975f4a305bb9c",
		"resnet_s.s1b0.a.conv":      "3838d15c927bae3bb6ceb68c65e6e969caa64029a4fd9267e9a1b2a06eac2b75",
		"resnet_s.s1b0.a.conv/acc":  "a27262f7d936af3d8eefb6aa0645aaf829f4e6ccc88e8ae50d28b72e3b3de640",
	}
	for _, layer := range []string{"vit_tiny.blk0.mlp.fc1", "resnet_s.s1b0.a.conv"} {
		model := layer[:strings.IndexByte(layer, '.')]
		sim, pool := loadSim(t, model)
		x, y := pool.subset(8)
		index := -1
		for _, l := range sim.Layers() {
			if l.Name == layer {
				index = l.Index
			}
		}
		if index < 0 {
			t.Fatalf("%s has no layer %s", model, layer)
		}
		for _, acc := range []numfmt.Format{nil, numfmt.FP16(true)} {
			key := layer
			if acc != nil {
				key += "/acc"
			}
			rep, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
				Format: numfmt.FP16(true),
				Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{
					Activations: numfmt.FP16(true), Accumulator: acc,
				}},
				Site: goldeneye.SiteAccum, Target: goldeneye.TargetNeuron,
				Layer: index, Injections: 12, Seed: 23,
				Pool: &goldeneye.EvalPool{X: x, Y: y}, KeepTrace: true,
			})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			wire, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(wire)
			if got := hex.EncodeToString(sum[:]); got != campaigns[key] {
				t.Errorf("%s campaign: wire sha256 %s, pinned %s", key, got, campaigns[key])
			}
		}
	}
}
