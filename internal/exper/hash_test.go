package exper

import (
	"testing"

	"goldeneye"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/tensor"
)

// Pinned cell hashes from before the detection subsystem landed. Detector
// configuration joins the hash only when detectors are set, and a uniform
// assignment hashes as the legacy flags that once spelled it, so every
// persisted sweep checkpoint from earlier releases must still resolve to
// the same hash — a silent change here would discard (or worse, mis-resume)
// existing checkpoint directories.
func TestCellHashPinned(t *testing.T) {
	pool := &goldeneye.EvalPool{X: tensor.New(16, 4), Y: make([]int, 16)}
	fp16, bfp := numfmt.FP16(true), numfmt.BFPe5m5()
	cases := []struct {
		name string
		cfg  goldeneye.CampaignConfig
		want uint64
	}{
		{
			name: "fp16_value_neuron",
			cfg: goldeneye.CampaignConfig{
				Format: fp16, Site: goldeneye.SiteValue,
				Target: goldeneye.TargetNeuron, Layer: 2, Injections: 1000,
				Seed: 77, Pool: pool, Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: fp16}},
			},
			want: 0x2728bf4f168acb5c,
		},
		{
			name: "bfp_metadata_ranger",
			cfg: goldeneye.CampaignConfig{
				Format: bfp, Site: goldeneye.SiteMetadata,
				Target: goldeneye.TargetNeuron, Layer: 4, Injections: 500,
				Seed: 9, Pool: pool, UseRanger: true,
				Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: bfp}},
			},
			want: 0x4db29a4b9b2a197f,
		},
		{
			name: "fp16_weight_dmr",
			cfg: goldeneye.CampaignConfig{
				Format: fp16, Site: goldeneye.SiteValue,
				Target: goldeneye.TargetWeight, Layer: 1, Injections: 250,
				Seed: 154, Pool: pool, MeasureDMR: true, Assignment: &goldeneye.FormatAssignment{Params: fp16},
			},
			want: 0xa6621b5e29014015,
		},
	}
	for _, tc := range cases {
		if got := CellHash(tc.cfg); got != tc.want {
			t.Errorf("%s: cellHash = %#x, pinned %#x", tc.name, got, tc.want)
		}
	}
}

// Detector options must change the hash (a cell swept with a different
// pipeline is a different experiment), and distinct pipelines must hash
// differently.
func TestCellHashDetectorsDistinguish(t *testing.T) {
	pool := &goldeneye.EvalPool{X: tensor.New(8, 4), Y: make([]int, 8)}
	base := goldeneye.CampaignConfig{
		Format: numfmt.FP16(true), Site: goldeneye.SiteValue,
		Target: goldeneye.TargetNeuron, Layer: 2, Injections: 100,
		Seed: 1, Pool: pool,
	}
	withRanger := base
	specs, err := goldeneye.ParseDetectors("ranger")
	if err != nil {
		t.Fatal(err)
	}
	withRanger.Detectors = specs
	withAbort := withRanger
	withAbort.Recovery = goldeneye.RecoverAbort
	h0, h1, h2 := CellHash(base), CellHash(withRanger), CellHash(withAbort)
	if h0 == h1 || h1 == h2 || h0 == h2 {
		t.Fatalf("detector configs must produce distinct hashes: %#x %#x %#x", h0, h1, h2)
	}
}
