package goldeneye

import (
	"testing"

	"goldeneye/internal/numfmt"
)

func TestParseFormat(t *testing.T) {
	tests := []struct {
		give     string
		wantName string
		wantBits int
	}{
		{give: "fp32", wantName: "fp32", wantBits: 32},
		{give: "fp16", wantName: "fp16", wantBits: 16},
		{give: "FP16", wantName: "fp16", wantBits: 16},
		{give: "bfloat16", wantName: "bfloat16", wantBits: 16},
		{give: "bf16", wantName: "bfloat16", wantBits: 16},
		{give: "tf32", wantName: "tf32", wantBits: 19},
		{give: "dlfloat", wantName: "dlfloat", wantBits: 16},
		{give: "fp8_e4m3", wantName: "fp8_e4m3", wantBits: 8},
		{give: "fp8_e4m3_nodn", wantName: "fp8_e4m3_nodn", wantBits: 8},
		{give: "fp_e5m6", wantName: "fp_e5m6", wantBits: 12},
		{give: "fp_e2m5_nodn", wantName: "fp_e2m5_nodn", wantBits: 8},
		{give: "afp_e5m2", wantName: "afp_e5m2", wantBits: 8},
		{give: "afp_e4m4", wantName: "afp_e4m4", wantBits: 9},
		{give: "fxp16", wantName: "fxp_1_7_8", wantBits: 16},
		{give: "fxp32", wantName: "fxp_1_15_16", wantBits: 32},
		{give: "fxp_1_3_4", wantName: "fxp_1_3_4", wantBits: 8},
		{give: "int8", wantName: "int8", wantBits: 8},
		{give: "int16", wantName: "int16", wantBits: 16},
		{give: "int5", wantName: "int5", wantBits: 5},
		{give: "bfp_e5m5", wantName: "bfp_e5m5_b0", wantBits: 6},
		{give: "bfp_e8m7_b16", wantName: "bfp_e8m7_b16", wantBits: 8},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			f, err := ParseFormat(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if f.Name() != tt.wantName {
				t.Fatalf("name = %q, want %q", f.Name(), tt.wantName)
			}
			if f.BitWidth() != tt.wantBits {
				t.Fatalf("bits = %d, want %d", f.BitWidth(), tt.wantBits)
			}
		})
	}
}

func TestParseFormatErrors(t *testing.T) {
	bad := []string{
		"", "banana", "fp_", "fp_e4", "fp_exmy", "fxp_1_3", "fxp_1_a_b",
		"intx", "bfp_e5m5_bx", "afp_m3e4",
	}
	for _, spec := range bad {
		if _, err := ParseFormat(spec); err == nil {
			t.Errorf("ParseFormat(%q) succeeded, want error", spec)
		}
	}
}

func TestParseFormatRoundTripsOwnNames(t *testing.T) {
	// Every generic format renders a Name that ParseFormat accepts again.
	specs := []string{"fp_e4m3", "afp_e5m2", "fxp_1_7_8", "int8", "bfp_e5m5_b0"}
	for _, spec := range specs {
		f, err := ParseFormat(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		g, err := ParseFormat(f.Name())
		if err != nil {
			t.Fatalf("re-parse %q: %v", f.Name(), err)
		}
		if g.Name() != f.Name() {
			t.Fatalf("round trip: %q → %q", f.Name(), g.Name())
		}
	}
}

func TestParseFormatEmerging(t *testing.T) {
	tests := []struct {
		give     string
		wantName string
		wantBits int
	}{
		{give: "posit8", wantName: "posit8_es0", wantBits: 8},
		{give: "posit16", wantName: "posit16_es1", wantBits: 16},
		{give: "posit10_es2", wantName: "posit10_es2", wantBits: 10},
		{give: "lns8", wantName: "lns_5_2", wantBits: 8},
		{give: "lns16", wantName: "lns_7_8", wantBits: 16},
		{give: "lns_4_3", wantName: "lns_4_3", wantBits: 8},
		{give: "nf4", wantName: "nf4", wantBits: 4},
		{give: "nf3", wantName: "nf3", wantBits: 3},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			f, err := ParseFormat(tt.give)
			if err != nil {
				t.Fatal(err)
			}
			if f.Name() != tt.wantName || f.BitWidth() != tt.wantBits {
				t.Fatalf("got %s/%d, want %s/%d", f.Name(), f.BitWidth(), tt.wantName, tt.wantBits)
			}
		})
	}
	for _, bad := range []string{"positx", "posit8_esx", "lns_1", "nfx"} {
		if _, err := ParseFormat(bad); err == nil {
			t.Errorf("ParseFormat(%q) succeeded, want error", bad)
		}
	}
}

// Every named preset has a fused kernel: EmulateEpilogue hands layers an
// epilogue for it, per whole output and per sample, so no built-in format
// falls back to the hook path.
func TestParseFormatPresetsHaveFusedEpilogues(t *testing.T) {
	presets := []string{
		"fp32", "fp16", "half", "bfloat16", "bf16", "tf32", "tensorfloat32", "dlfloat",
		"fp8_e4m3", "fp8_e5m2", "int8", "int16", "fxp16", "fxp32", "bfp_e5m5", "afp_e5m2",
		"posit8", "posit16", "lns8", "lns16", "nf4",
	}
	for _, spec := range presets {
		for _, s := range []string{spec, spec + "_nodn"} {
			f, err := ParseFormat(s)
			if err != nil {
				continue // _nodn applies to the fp and afp forms only
			}
			for _, n := range []int{1, 2} {
				if numfmt.EmulateEpilogue(f, n).Empty() {
					t.Errorf("%s: no fused epilogue for %d samples", s, n)
				}
			}
		}
	}
}
