package goldeneye_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"goldeneye"
	"goldeneye/internal/numfmt"
)

func TestParseRoleFormats(t *testing.T) {
	cases := []struct {
		spec    string
		want    string // canonical rendering, "" = expect error
		errPart string
	}{
		{spec: "w:bf16,a:fp8_e4m3,acc:fp32", want: "w:bfloat16,a:fp8_e4m3,acc:fp32"},
		{spec: "weights:fp16,activations:fp16,accumulator:fp32", want: "w:fp16,a:fp16,acc:fp32"},
		{spec: "act:int8", want: "a:int8"},
		{spec: " w:fp16 , a:fp16 ", want: "w:fp16,a:fp16"},
		{spec: "", errPart: "empty role list"},
		{spec: "fp16", errPart: "not role:format"},
		{spec: "x:fp16", errPart: "unknown role"},
		{spec: "w:nosuchformat", errPart: "nosuchformat"},
		{spec: "p:int8", errPart: "default format-map segment"}, // whole-network only
	}
	for _, c := range cases {
		rf, err := goldeneye.ParseRoleFormats(c.spec)
		if c.want != "" {
			if err != nil {
				t.Errorf("ParseRoleFormats(%q): %v", c.spec, err)
				continue
			}
			if got := rf.Canonical(); got != c.want {
				t.Errorf("ParseRoleFormats(%q) = %q, want %q", c.spec, got, c.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("ParseRoleFormats(%q): error %v, want substring %q", c.spec, err, c.errPart)
		}
	}
}

func TestParseFormatMap(t *testing.T) {
	cases := []struct {
		spec    string
		want    string // canonical, "" = expect error
		errPart string
	}{
		{spec: "w:bf16,a:fp8_e4m3,acc:fp32", want: "w:bfloat16,a:fp8_e4m3,acc:fp32"},
		{spec: "w:fp16;4=w:fp8_e4m3,acc:fp32", want: "w:fp16;4=w:fp8_e4m3,acc:fp32"},
		{spec: "3=a:fp16", want: "3=a:fp16"},
		{spec: "a:fp16;2=a:int8;1=w:fp16", want: "a:fp16;1=w:fp16;2=a:int8"}, // layers sort
		{spec: "a:fp16,params:int8", want: "p:int8,a:fp16"},                  // Params leads
		{spec: "p:int8;3=w:fp16", want: "p:int8;3=w:fp16"},
		{spec: "3=p:int8", errPart: "default format-map segment"},
		{spec: "", errPart: "empty"},
		{spec: "2=a:fp16;w:fp16", errPart: "must be the first"},
		{spec: "1=a:fp16;1=w:fp16", errPart: "assigns layer 1 twice"},
		{spec: "-1=a:fp16", errPart: "negative"},
		{spec: "x=a:fp16", errPart: "not a number"},
		{spec: "acc:int8", errPart: "metadata"},       // scaled format as accumulator
		{spec: "2=acc:bfp_e5m5", errPart: "metadata"}, // shared-exponent accumulator
	}
	for _, c := range cases {
		asg, err := goldeneye.ParseFormatMap(c.spec)
		if c.want != "" {
			if err != nil {
				t.Errorf("ParseFormatMap(%q): %v", c.spec, err)
				continue
			}
			got := asg.Canonical()
			if got != c.want {
				t.Errorf("ParseFormatMap(%q) = %q, want %q", c.spec, got, c.want)
			}
			// Canonical must round-trip through the parser.
			back, err := goldeneye.ParseFormatMap(got)
			if err != nil {
				t.Errorf("ParseFormatMap(Canonical %q): %v", got, err)
			} else if back.Canonical() != got {
				t.Errorf("canonical round-trip %q -> %q", got, back.Canonical())
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("ParseFormatMap(%q): error %v, want substring %q", c.spec, err, c.errPart)
		}
	}
}

func TestFormatAssignmentValidate(t *testing.T) {
	var cfgErr *goldeneye.ConfigError
	if err := (&goldeneye.FormatAssignment{}).Validate(); err == nil || !errors.As(err, &cfgErr) {
		t.Fatalf("empty assignment: %v, want *ConfigError", err)
	}
	bad := &goldeneye.FormatAssignment{
		PerLayer: map[int]goldeneye.RoleFormats{-2: {Activations: numfmt.FP16(true)}},
	}
	if err := bad.Validate(); err == nil || !errors.As(err, &cfgErr) ||
		!strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative layer: %v, want *ConfigError about negative index", err)
	}
	meta := &goldeneye.FormatAssignment{
		Default: goldeneye.RoleFormats{Accumulator: numfmt.INT8()},
	}
	if err := meta.Validate(); err == nil || !errors.As(err, &cfgErr) ||
		!strings.Contains(err.Error(), "metadata") {
		t.Fatalf("metadata accumulator: %v, want *ConfigError about metadata", err)
	}
	if err := (&goldeneye.FormatAssignment{Params: numfmt.INT8()}).Validate(); err != nil {
		t.Fatalf("Params-only assignment rejected: %v", err)
	}
	ok := &goldeneye.FormatAssignment{
		Default:  goldeneye.RoleFormats{Weights: numfmt.BFloat16(true)},
		PerLayer: map[int]goldeneye.RoleFormats{3: {Accumulator: numfmt.FP16(true)}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
}

// Params converts every parameter and a Default weights role only the
// CONV/LINEAR ones, so the two coincide on mlp, whose parameters all belong
// to its linear layers (TestWholeNetworkConversionPinned covers the models
// where they differ). Neither may leak converted weights into a later
// native evaluation.
func TestEmulationAssignmentLowering(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(40)
	f := numfmt.FP8E4M3(true)

	native := sim.Evaluate(x, y, 10, goldeneye.EmulationConfig{})
	params := sim.Evaluate(x, y, 10, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
		Params: f, Default: goldeneye.RoleFormats{Activations: f},
	}})
	roles := sim.Evaluate(x, y, 10, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
		Default: goldeneye.RoleFormats{Weights: f, Activations: f},
	}})
	if params != roles {
		t.Fatalf("mlp: Params %.6f != Default weights role %.6f", params, roles)
	}
	if after := sim.Evaluate(x, y, 10, goldeneye.EmulationConfig{}); after != native {
		t.Fatalf("weight conversion leaked into native eval: %.6f vs %.6f", after, native)
	}
}

// A legacy v1 document's emulate_network/quantize_weights flags are lowered
// by the decoder into the assignment they stand for: the decoded campaign
// runs bit-identically to its assignment spelling, trace entry for trace
// entry, and both reports encode to the same bytes.
func TestCampaignAssignmentLowering(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(8)
	f := numfmt.FP8E4M3(true)
	layer := sim.InjectableLayers()[1]
	doc := fmt.Sprintf(`{"version":1,"format":"fp8_e4m3","site":"value","target":"neuron",`+
		`"layer":%d,"injections":20,"seed":13,"emulate_network":true,"quantize_weights":true,"keep_trace":true}`, layer)
	var lowered goldeneye.CampaignConfig
	if err := json.Unmarshal([]byte(doc), &lowered); err != nil {
		t.Fatal(err)
	}
	lowered.Pool = &goldeneye.EvalPool{X: x, Y: y}
	spelled := goldeneye.CampaignConfig{
		Format:     f,
		Assignment: &goldeneye.FormatAssignment{Params: f, Default: goldeneye.RoleFormats{Activations: f}},
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      layer,
		Injections: 20,
		Seed:       13,
		Pool:       lowered.Pool,
		KeepTrace:  true,
	}
	var reps [2]*goldeneye.CampaignReport
	for i, cfg := range []goldeneye.CampaignConfig{lowered, spelled} {
		rep, err := sim.RunCampaign(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	reportsIdentical(t, "legacy document lowering", reps[0], reps[1])
	a, err := json.Marshal(reps[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(reps[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("lowered and spelled reports encode differently:\n%s\n%s", a, b)
	}
}

// A per-layer override must actually change the computation relative to
// the uniform default it overrides (sanity that the dynamic hook path
// resolves formats per visit rather than globally).
func TestAssignmentPerLayerOverrideTakesEffect(t *testing.T) {
	sim, pool := loadSim(t, "mlp")
	x, y := pool.subset(40)
	harsh := numfmt.NewLUT(2) // 2-bit lookup: destructive enough to move accuracy
	uniform := sim.Evaluate(x, y, 10, goldeneye.EmulationConfig{
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: harsh}},
	})
	spared := sim.Evaluate(x, y, 10, goldeneye.EmulationConfig{
		Assignment: &goldeneye.FormatAssignment{
			Default: goldeneye.RoleFormats{Activations: harsh},
			PerLayer: map[int]goldeneye.RoleFormats{
				sim.InjectableLayers()[0]: {}, // first linear runs native
			},
		},
	})
	native := sim.Evaluate(x, y, 10, goldeneye.EmulationConfig{})
	if uniform == native {
		t.Skip("2-bit LUT did not move accuracy on this model; override unobservable")
	}
	if spared == uniform {
		t.Fatalf("per-layer native override did not change the result (uniform %.6f, spared %.6f)", uniform, spared)
	}
}

// Whole-network conversion is pinned with constants on the models where it
// differs from a CONV/LINEAR weights role: every non-frozen parameter —
// normalization scale and shift included — is converted, and activations
// run in the same format. The logits digests cover resnet_s (BatchNorm) and
// vit_tiny (LayerNorm, embeddings); the report digest covers a weight-target
// campaign on resnet_s, config echo and trace included.
func TestWholeNetworkConversionPinned(t *testing.T) {
	logitsDigest := func(x *goldeneye.Tensor) string {
		h := sha256.New()
		var buf [4]byte
		for _, v := range x.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	want := map[string]string{
		"resnet_s/fp8_e4m3": "c29cf7d40ef726eb7f1a5c7012c0529f307359f871feee4eaee9f8a612ae5201",
		"resnet_s/bfp_e5m5": "8f80c5611e4bc62b3c33d430b9d9c3db9ffaba42d5213086cb0767e8b5e49907",
		"resnet_s/int8":     "e46d1b45863748f603ed1e66bd27aaefb79d8cc15248dbe5b2853e73b5b1e4e3",
		"vit_tiny/fp8_e4m3": "a981582132de3bfe8e443a622676c17a469c79303f9e588e03d8b8654a7b9a35",
		"vit_tiny/bfp_e5m5": "1992100397606a55f6b2c10d3904567063b5d72bd83028b8f91866b907ef1c93",
		"vit_tiny/int8":     "683fc5c91b172cc9fc7ac46493d43851fae137583b6cd0b5b0d9eb2c3fb37419",
	}
	for _, model := range []string{"resnet_s", "vit_tiny"} {
		sim, pool := loadSim(t, model)
		x, _ := pool.subset(8)
		for _, name := range []string{"fp8_e4m3", "bfp_e5m5", "int8"} {
			f, err := goldeneye.ParseFormat(name)
			if err != nil {
				t.Fatal(err)
			}
			key := model + "/" + name
			got := logitsDigest(sim.Logits(x, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
				Params: f, Default: goldeneye.RoleFormats{Activations: f},
			}}))
			if got != want[key] {
				t.Errorf("%s: logits digest %s, pinned %s", key, got, want[key])
			}
			// The pin must see the scope difference: converting only the
			// CONV/LINEAR parameters gives other logits on these models.
			scoped := logitsDigest(sim.Logits(x, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
				Default: goldeneye.RoleFormats{Weights: f, Activations: f},
			}}))
			if scoped == got {
				t.Errorf("%s: whole-network and CONV/LINEAR weight conversion give the same logits", key)
			}
		}
	}

	sim, pool := loadSim(t, "resnet_s")
	x, y := pool.subset(8)
	f := numfmt.INT8()
	rep, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
		Format: f, Site: goldeneye.SiteValue, Target: goldeneye.TargetWeight,
		Layer: sim.WeightedLayers()[1], Injections: 16, Seed: 11,
		Pool: &goldeneye.EvalPool{X: x, Y: y}, KeepTrace: true,
		Assignment: &goldeneye.FormatAssignment{Params: f, Default: goldeneye.RoleFormats{Activations: f}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(wire)
	if got, pinned := hex.EncodeToString(sum[:]), "07299e9abe07dfd8aa8828cd0c289e619f46036f7e2d6a81d08f1d7629274e7f"; got != pinned {
		t.Errorf("weight-target campaign: wire sha256 %s, pinned %s", got, pinned)
	}
}
