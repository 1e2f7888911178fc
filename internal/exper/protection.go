package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/numfmt"
)

// ProtectionRow is one configuration of the software-directed protection
// study (§V-B positions GoldenEye for "software-directed protection
// techniques (such as various forms of duplication)").
type ProtectionRow struct {
	Model        string
	Target       string // neuron | weight
	Protection   string // none | ranger+clamp | sentinel | dmr | abft | dmr+reexec
	MismatchRate float64
	MeanDelta    float64
	Coverage     float64 // fraction of injections the mechanism detected
	FPRate       float64 // false positives per fault-free inference
	RecoveryRate float64 // fraction of detections the recovery policy repaired
	CostFactor   float64 // relative inference cost of the mechanism
}

// protectionConfig is one row of the sweep: a detector pipeline (empty for
// the unprotected baseline) plus its recovery policy and a nominal relative
// cost (re-execution mechanisms run every inference twice).
type protectionConfig struct {
	name      string
	detectors string
	recovery  string
	cost      float64
}

var protectionConfigs = []protectionConfig{
	{name: "none", cost: 1},
	{name: "ranger+clamp", detectors: "ranger", recovery: "clamp", cost: 1.05},
	{name: "sentinel", detectors: "sentinel", recovery: "none", cost: 1.02},
	{name: "dmr", detectors: "dmr", recovery: "none", cost: 2},
	{name: "abft", detectors: "abft", recovery: "none", cost: 1.1},
	{name: "dmr+reexec", detectors: "dmr", recovery: "reexecute", cost: 2},
}

// Protection sweeps the detection/recovery pipeline against FP16
// exponent-heavy faults on both targets. The classic results reproduce
// mechanistically through internal/detect: DMR detects transient (neuron)
// faults but is structurally blind to persistent (weight) corruption, the
// calibrated ranger bounds damage for both targets (its clamp delivers the
// same activations the legacy UseRanger path did, now with the detection
// accounted), and ABFT's weight checksums catch exactly the corruption DMR
// misses. Every pipeline's false-positive rate is measured on a fault-free
// pool sweep and reported per row.
func Protection(ctx context.Context, model string, w io.Writer, o Options) ([]ProtectionRow, error) {
	sim, ds, err := loadSim(model, o)
	if err != nil {
		return nil, err
	}
	// Detector pipelines are swept per row; sweep-level detector options
	// would override them inside runCell.
	o.Detectors, o.Recovery = nil, ""
	pool := injPool(ds, 48, o)
	format := numfmt.FP16(true)

	var rows []ProtectionRow
	for _, target := range []inject.Target{inject.TargetNeuron, inject.TargetWeight} {
		layerSet := sim.InjectableLayers()
		if target == inject.TargetWeight {
			layerSet = sim.WeightedLayers()
		}
		layer := layerSet[len(layerSet)/2]
		base := goldeneye.CampaignConfig{
			Format:     format,
			Site:       inject.SiteValue,
			Target:     target,
			Layer:      layer,
			Injections: orDefault(o.Injections, 500),
			Seed:       uint64(target) * 77,
			Pool:       pool,
			BatchSize:  o.campaignBatch(),
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: format}},
		}
		for _, pc := range protectionConfigs {
			cfg := base
			key := fmt.Sprintf("protection/%s/%s/%s", model, target, pc.name)
			if pc.detectors != "" {
				specs, perr := goldeneye.ParseDetectors(pc.detectors)
				if perr != nil {
					return rows, perr
				}
				cfg.Detectors = specs
				if cfg.Recovery, perr = goldeneye.ParseRecovery(pc.recovery); perr != nil {
					return rows, perr
				}
			}
			rep, err := runCell(ctx, sim, key, cfg, o)
			if err != nil {
				return rows, err
			}
			row := ProtectionRow{
				Model:        paperName(model),
				Target:       target.String(),
				Protection:   pc.name,
				MismatchRate: rep.MismatchRate(),
				MeanDelta:    rep.MeanDeltaLoss(),
				Coverage:     rep.DetectionCoverage(),
				RecoveryRate: rep.RecoveryRate(),
				CostFactor:   pc.cost,
			}
			for _, st := range rep.PerDetector {
				row.FPRate = st.FalsePositiveRate()
			}
			rows = append(rows, row)
			if w != nil {
				fmt.Fprintf(w, "%-12s %-7s %-13s mismatch=%.4f ΔLoss=%8.4f coverage=%.3f fp=%.3f recov=%.3f cost=%.2fx\n",
					row.Model, row.Target, row.Protection, row.MismatchRate,
					row.MeanDelta, row.Coverage, row.FPRate, row.RecoveryRate, row.CostFactor)
			}
		}
	}
	return rows, nil
}
