package goldeneye_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"goldeneye"
	"goldeneye/internal/detect"
	"goldeneye/internal/exper"
	"goldeneye/internal/inject"
	"goldeneye/internal/sampling"
)

// wireRow is one row of the configuration round-trip table: a config, the
// schema version its encoding stamps, and — for rows pinning a document
// written before assignments replaced the uniform-format flags — that
// document's exact bytes.
type wireRow struct {
	cfg     goldeneye.CampaignConfig
	version int
	doc     string
}

// wireConfigs spans the encodable configuration space: presets and generic
// format geometries, every site/target/fault-kind spelling, detector
// pipelines with recovery policies, the legacy flag spellings of uniform
// assignments, and a v5 mixed-precision assignment.
func wireConfigs(t *testing.T) map[string]wireRow {
	t.Helper()
	mustFormat := func(spec string) goldeneye.Format {
		f, err := goldeneye.ParseFormat(spec)
		if err != nil {
			t.Fatalf("goldeneye.ParseFormat(%q): %v", spec, err)
		}
		return f
	}
	uniform := func(spec string, activations, params bool) (goldeneye.Format, *goldeneye.FormatAssignment) {
		f := mustFormat(spec)
		a := &goldeneye.FormatAssignment{}
		if activations {
			a.Default.Activations = f
		}
		if params {
			a.Params = f
		}
		return f, a
	}
	genericF, genericA := uniform("bfp_e5m5_b16", true, true)
	emulateF, emulateA := uniform("fp8_e4m3", true, false)
	quantizeF, quantizeA := uniform("int8", false, true)
	bothF, bothA := uniform("bfp_e5m5", true, true)
	accumF, accumA := uniform("fp16", true, false)
	return map[string]wireRow{
		"minimal": {version: 1, cfg: goldeneye.CampaignConfig{
			Format:     mustFormat("fp16"),
			Injections: 100,
			Seed:       1,
			Layer:      3,
		}},
		"generic-format": {version: 1, cfg: goldeneye.CampaignConfig{
			Format:            genericF,
			Assignment:        genericA,
			Injections:        1000,
			FlipsPerInjection: 2,
			Seed:              42,
			Layer:             7,
			Site:              inject.SiteMetadata,
			Target:            inject.TargetWeight,
			FaultKind:         inject.KindStuckAt1,
			BatchSize:         32,
			UseRanger:         true,
			MeasureDMR:        true,
			MaxAborts:         5,
		}},
		"nodenormal": {version: 1, cfg: goldeneye.CampaignConfig{
			Format:     mustFormat("fp_e4m3_nodn"),
			Injections: 10,
			Seed:       7,
			Layer:      -1,
			FaultKind:  inject.KindBurst,
		}},
		"detectors": {version: 1, cfg: goldeneye.CampaignConfig{
			Format:     mustFormat("int8"),
			Injections: 50,
			Seed:       3,
			Layer:      2,
			Site:       inject.SiteValue,
			Target:     inject.TargetNeuron,
			Detectors: []detect.Spec{
				{Kind: "ranger", Margin: 1.5},
				{Kind: "sentinel"},
			},
			Recovery: detect.PolicyClamp,
		}},
		"legacy-emulate-network": {version: 1, cfg: goldeneye.CampaignConfig{
			Format: emulateF, Assignment: emulateA,
			Site: inject.SiteValue, Target: inject.TargetNeuron,
			Layer: 2, Injections: 300, Seed: 5, UseRanger: true,
		}, doc: `{"version":1,"format":"fp8_e4m3","site":"value","target":"neuron","layer":2,"injections":300,"seed":5,"use_ranger":true,"emulate_network":true}`},
		"legacy-quantize-weights": {version: 1, cfg: goldeneye.CampaignConfig{
			Format: quantizeF, Assignment: quantizeA,
			Site: inject.SiteValue, Target: inject.TargetWeight,
			Layer: 1, Injections: 64, Seed: 8, MeasureDMR: true,
		}, doc: `{"version":1,"format":"int8","site":"value","target":"weight","layer":1,"injections":64,"seed":8,"quantize_weights":true,"measure_dmr":true}`},
		"legacy-both-flags": {version: 1, cfg: goldeneye.CampaignConfig{
			Format: bothF, Assignment: bothA,
			Site: inject.SiteMetadata, Target: inject.TargetNeuron,
			Layer: 4, Injections: 500, Seed: 9, BatchSize: 16,
		}, doc: `{"version":1,"format":"bfp_e5m5_b0","site":"metadata","target":"neuron","layer":4,"injections":500,"seed":9,"batch_size":16,"emulate_network":true,"quantize_weights":true}`},
		"legacy-accum-emulate-network": {version: 2, cfg: goldeneye.CampaignConfig{
			Format: accumF, Assignment: accumA,
			Site: inject.SiteAccum, Target: inject.TargetNeuron,
			Layer: 3, Injections: 100, Seed: 2,
		}, doc: `{"version":2,"format":"fp16","site":"accum","target":"neuron","layer":3,"injections":100,"seed":2,"emulate_network":true}`},
		"v5-params-per-layer": {version: 5, cfg: goldeneye.CampaignConfig{
			Assignment: &goldeneye.FormatAssignment{
				Params:   mustFormat("int8"),
				Default:  goldeneye.RoleFormats{Activations: mustFormat("fp8_e4m3")},
				PerLayer: map[int]goldeneye.RoleFormats{2: {Weights: mustFormat("fp16"), Accumulator: mustFormat("fp32")}},
			},
			Site: inject.SiteValue, Target: inject.TargetWeight,
			Layer: 2, Injections: 40, Seed: 6,
		}},
	}
}

// formatName is f's name, or "" for a nil format.
func formatName(f goldeneye.Format) string {
	if f == nil {
		return ""
	}
	return f.Name()
}

// TestCampaignConfigRoundTrip pins the versioned wire contract: every field
// that travels must survive encode→decode, and re-encoding the decoded
// config must be byte-identical (the stability the campaign service's
// content-addressed cache keys rely on). Rows carrying a legacy document
// pin the lowering: the assignment-spelled config encodes to exactly that
// document, and the document decodes to a config with the same encoding
// and cell hash.
func TestCampaignConfigRoundTrip(t *testing.T) {
	for name, row := range wireConfigs(t) {
		cfg := row.cfg
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(cfg)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if stamp := fmt.Sprintf(`"version":%d`, row.version); !bytes.Contains(data, []byte(stamp)) {
				t.Fatalf("encoding does not stamp %s: %s", stamp, data)
			}
			if row.doc != "" {
				if string(data) != row.doc {
					t.Fatalf("assignment spelling does not encode as the legacy document:\n got %s\nwant %s", data, row.doc)
				}
				var lowered goldeneye.CampaignConfig
				if err := json.Unmarshal([]byte(row.doc), &lowered); err != nil {
					t.Fatalf("unmarshal legacy document: %v", err)
				}
				if got, want := exper.CellHash(lowered), exper.CellHash(cfg); got != want {
					t.Errorf("lowered document hashes %#x, assignment spelling %#x", got, want)
				}
			}
			var back goldeneye.CampaignConfig
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}

			if formatName(back.Format) != formatName(cfg.Format) {
				t.Errorf("Format: got %q, want %q", formatName(back.Format), formatName(cfg.Format))
			}
			if back.Assignment.Canonical() != cfg.Assignment.Canonical() {
				t.Errorf("Assignment: got %q, want %q", back.Assignment.Canonical(), cfg.Assignment.Canonical())
			}
			if exper.CellHash(back) != exper.CellHash(cfg) {
				t.Errorf("cell hash drifted over the wire")
			}
			if back.Site != cfg.Site || back.Target != cfg.Target || back.FaultKind != cfg.FaultKind {
				t.Errorf("site/target/kind: got %v/%v/%v, want %v/%v/%v",
					back.Site, back.Target, back.FaultKind, cfg.Site, cfg.Target, cfg.FaultKind)
			}
			if back.Layer != cfg.Layer || back.Injections != cfg.Injections ||
				back.FlipsPerInjection != cfg.FlipsPerInjection || back.Seed != cfg.Seed ||
				back.BatchSize != cfg.BatchSize || back.MaxAborts != cfg.MaxAborts {
				t.Errorf("scalar fields drifted: got %+v", back)
			}
			if back.UseRanger != cfg.UseRanger || back.MeasureDMR != cfg.MeasureDMR {
				t.Errorf("flag fields drifted: got %+v", back)
			}
			if len(back.Detectors) != len(cfg.Detectors) {
				t.Fatalf("detectors: got %d, want %d", len(back.Detectors), len(cfg.Detectors))
			}
			for i := range cfg.Detectors {
				if back.Detectors[i].Kind != cfg.Detectors[i].Kind ||
					back.Detectors[i].Margin != cfg.Detectors[i].Margin {
					t.Errorf("detector %d: got %+v, want %+v", i, back.Detectors[i], cfg.Detectors[i])
				}
			}
			if back.Recovery != cfg.Recovery {
				t.Errorf("Recovery: got %v, want %v", back.Recovery, cfg.Recovery)
			}

			again, err := json.Marshal(back)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Errorf("encode→decode→encode not byte-stable:\n first: %s\nsecond: %s", data, again)
			}
		})
	}
}

// TestCampaignReportRoundTrip checks the report wrapper survives the wire
// byte-stably, including the bit-exact Welford accumulators.
func TestCampaignReportRoundTrip(t *testing.T) {
	cfg := wireConfigs(t)["detectors"].cfg
	rep := goldeneye.CampaignReport{
		Config:   cfg,
		Detected: 12,
		Aborted:  1,
	}
	rep.Injections = 49
	rep.Mismatches = 17
	rep.DeltaLoss.Add(0.25)
	rep.DeltaLoss.Add(-1.5)
	rep.DeltaLoss.Add(3.75)

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back goldeneye.CampaignReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Injections != rep.Injections || back.Mismatches != rep.Mismatches ||
		back.Detected != rep.Detected || back.Aborted != rep.Aborted {
		t.Errorf("counters drifted: got %+v", back)
	}
	if back.DeltaLoss.Mean() != rep.DeltaLoss.Mean() {
		t.Errorf("DeltaLoss mean not bit-exact: got %v, want %v",
			back.DeltaLoss.Mean(), rep.DeltaLoss.Mean())
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("report encoding not byte-stable:\n first: %s\nsecond: %s", data, again)
	}
}

// TestWireRejectsNewerVersions pins forward-compatibility behavior: a
// daemon must refuse documents from a newer schema rather than misread
// them.
func TestWireRejectsNewerVersions(t *testing.T) {
	var cfg goldeneye.CampaignConfig
	err := json.Unmarshal([]byte(`{"version":99,"format":"fp16","injections":1,"seed":1,"layer":0}`), &cfg)
	if err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Errorf("config: want newer-version rejection, got %v", err)
	}
	var rep goldeneye.CampaignReport
	err = json.Unmarshal([]byte(`{"version":99,"result":{},"config":{"version":1,"layer":0,"injections":1,"seed":1}}`), &rep)
	if err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Errorf("report: want newer-version rejection, got %v", err)
	}
}

// TestWireV2AssignmentRoundTrip pins the v2 surface: a config carrying a
// format assignment (or an accumulator site) stamps version 2, survives
// encode→decode with the assignment intact, and re-encodes byte-stably.
func TestWireV2AssignmentRoundTrip(t *testing.T) {
	asg, err := goldeneye.ParseFormatMap("w:bf16,a:fp8_e4m3,acc:fp32;4=a:fp16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldeneye.CampaignConfig{
		Assignment: asg,
		Injections: 200,
		Seed:       9,
		Layer:      4,
		Site:       inject.SiteAccum,
		Target:     inject.TargetNeuron,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Contains(data, []byte(`"version":2`)) {
		t.Fatalf("assignment config should stamp v2: %s", data)
	}
	var back goldeneye.CampaignConfig
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Assignment == nil || back.Assignment.Canonical() != asg.Canonical() {
		t.Fatalf("assignment drifted: got %v, want %v", back.Assignment, asg)
	}
	if back.Site != inject.SiteAccum || back.Format != nil {
		t.Fatalf("site/format drifted: %+v", back)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("v2 encoding not byte-stable:\n first: %s\nsecond: %s", data, again)
	}

	// The accumulator site alone (no assignment: native fp32 register)
	// also needs v2 — a v1 decoder has no "accum" site spelling.
	accumOnly := goldeneye.CampaignConfig{Format: cfg.Assignment.Default.Activations,
		Injections: 1, Seed: 1, Layer: 0, Site: inject.SiteAccum}
	data2, err := json.Marshal(accumOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data2, []byte(`"version":2`)) {
		t.Fatalf("accum-site config should stamp v2: %s", data2)
	}

	// A report wrapping a v2 config is itself stamped v2.
	rep := goldeneye.CampaignReport{Config: cfg}
	repData, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(repData, []byte(`"version":2`)) {
		t.Fatalf("v2 report not stamped: %s", repData)
	}
	var repBack goldeneye.CampaignReport
	if err := json.Unmarshal(repData, &repBack); err != nil {
		t.Fatalf("report unmarshal: %v", err)
	}
	if repBack.Config.Assignment.Canonical() != asg.Canonical() {
		t.Fatal("report round-trip lost the assignment")
	}
}

// TestWireV2StrictDecoding: v2 documents decode strictly (unknown fields
// are errors), while v1 documents keep the lenient legacy decoding.
func TestWireV2StrictDecoding(t *testing.T) {
	var cfg goldeneye.CampaignConfig
	v2 := `{"version":2,"format":"fp16","injections":1,"seed":1,"layer":0,"bogus_field":true}`
	if err := json.Unmarshal([]byte(v2), &cfg); err == nil ||
		!strings.Contains(err.Error(), "bogus_field") {
		t.Errorf("v2 with unknown field: want strict rejection, got %v", err)
	}
	v1 := `{"version":1,"format":"fp16","injections":1,"seed":1,"layer":0,"bogus_field":true}`
	if err := json.Unmarshal([]byte(v1), &cfg); err != nil {
		t.Errorf("v1 with unknown field must stay lenient, got %v", err)
	}
	// An invalid assignment inside a v2 document is a decode error, not a
	// deferred crash.
	badAsg := `{"version":2,"injections":1,"seed":1,"layer":0,` +
		`"assignment":{"default":{"weights":"nosuchformat"}}}`
	if err := json.Unmarshal([]byte(badAsg), &cfg); err == nil {
		t.Error("unparseable assignment format must fail decoding")
	}
}

// TestWireV4SamplingRoundTrip pins the v4 surface: a config carrying an
// active sampling plan stamps version 4, survives encode→decode with the
// plan intact, and re-encodes byte-stably; exhaustive configs never emit
// the field, and a report's estimator state round-trips bit-exactly.
func TestWireV4SamplingRoundTrip(t *testing.T) {
	f, err := goldeneye.ParseFormat("fp16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldeneye.CampaignConfig{
		Format:     f,
		Injections: 200,
		Seed:       9,
		Layer:      2,
		Sampling: &sampling.Plan{
			Fraction:   0.25,
			Strata:     map[string]float64{"exponent": 1},
			Prune:      true,
			TargetCI:   0.05,
			CheckEvery: 64,
		},
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Contains(data, []byte(`"version":4`)) {
		t.Fatalf("sampled config should stamp v4: %s", data)
	}
	var back goldeneye.CampaignConfig
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	p := back.Sampling
	if p == nil || p.Fraction != 0.25 || !p.Prune || p.TargetCI != 0.05 ||
		p.CheckEvery != 64 || p.Strata["exponent"] != 1 {
		t.Fatalf("sampling plan drifted: %+v", p)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("v4 encoding not byte-stable:\n first: %s\nsecond: %s", data, again)
	}

	// Exhaustive configs keep their pre-v4 bytes: no version bump, no
	// sampling field.
	plain := goldeneye.CampaignConfig{Format: f, Injections: 1, Seed: 1, Layer: 0}
	data2, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data2, []byte(`"sampling"`)) || bytes.Contains(data2, []byte(`"version":4`)) {
		t.Fatalf("exhaustive config leaked v4 surface: %s", data2)
	}

	// A report carrying estimator state is stamped v4 and its per-stratum
	// Welford moments survive the wire bit-exactly.
	rep := goldeneye.CampaignReport{Config: cfg, Sampling: &sampling.Report{
		Strata:    []sampling.Stratum{{Name: "exponent", Drawn: 40, Executed: 3}},
		StopIndex: 128,
	}}
	rep.Sampling.Strata[0].Mismatch.Add(1)
	rep.Sampling.Strata[0].Mismatch.Add(0)
	rep.Sampling.Strata[0].DeltaLoss.Add(0.125)
	repData, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(repData, []byte(`"version":4`)) {
		t.Fatalf("v4 report not stamped: %s", repData)
	}
	var repBack goldeneye.CampaignReport
	if err := json.Unmarshal(repData, &repBack); err != nil {
		t.Fatalf("report unmarshal: %v", err)
	}
	if repBack.Sampling == nil || repBack.Sampling.StopIndex != 128 ||
		repBack.Sampling.Strata[0] != rep.Sampling.Strata[0] {
		t.Fatalf("estimator state drifted over the wire: %+v", repBack.Sampling)
	}
}

// TestWireRejectsCustomDetectorFactory: code-bearing specs must not travel.
func TestWireRejectsCustomDetectorFactory(t *testing.T) {
	cfg := wireConfigs(t)["minimal"].cfg
	cfg.Detectors = []detect.Spec{{Kind: "ranger", New: func(detect.Target) (detect.Detector, error) { return nil, nil }}}
	if _, err := json.Marshal(cfg); err == nil {
		t.Error("want marshal error for detector with custom factory")
	}
}
