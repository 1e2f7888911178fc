package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/dse"
	"goldeneye/internal/inject"
)

// Fig9Row is one scatter point of Fig 9: a heuristic-suggested format's
// accuracy versus its network-wide resilience (mean ΔLoss averaged over all
// layers, value and metadata sites combined).
type Fig9Row struct {
	Model     string
	Family    string
	Format    string
	Bits      int
	Accuracy  float64
	MeanDelta float64
}

// Fig9 combines the DSE use case with the resiliency use case (paper §V-A,
// Fig 9): for each accepted BFP/AFP design point of the heuristic, measure
// accuracy and average ΔLoss, exposing the accuracy/resilience/bitwidth
// trade-off frontier.
func Fig9(ctx context.Context, model string, threshold float64, w io.Writer, o Options) ([]Fig9Row, error) {
	if threshold == 0 {
		threshold = 0.02
	}
	sim, ds, err := loadSim(model, o)
	if err != nil {
		return nil, err
	}
	vp := valPool(ds, o)
	baseline := sim.EvaluatePool(vp, goldeneye.EmulationConfig{})

	pool := injPool(ds, 48, o)

	var rows []Fig9Row
	for _, family := range []dse.Family{dse.FamilyBFP, dse.FamilyAFP} {
		res := sim.RunDSE(vp.X, vp.Y, o.batchSize(), goldeneye.DSEConfig{
			Family:    family,
			Baseline:  baseline,
			Threshold: threshold,
		})
		for _, node := range res.Accepted() {
			format, err := dse.MakeFormat(node.Point)
			if err != nil {
				continue
			}
			// Network-wide resilience: average ΔLoss across layers and
			// sites with a reduced per-layer budget (the summarizing
			// metric the paper proposes and flags for future refinement).
			var sum float64
			var count int
			for _, layer := range sim.InjectableLayers() {
				for _, site := range []inject.Site{inject.SiteValue, inject.SiteMetadata} {
					key := fmt.Sprintf("fig9/%s/%s/%s/L%02d/%s", model, family, format.Name(), layer, site)
					report, err := runCell(ctx, sim, key, goldeneye.CampaignConfig{
						Format:     format,
						Site:       site,
						Target:     inject.TargetNeuron,
						Layer:      layer,
						Injections: orDefault(o.Injections, 200),
						Seed:       uint64(node.Order)<<16 | uint64(layer)<<1 | uint64(site&1),
						Pool:       pool,
						BatchSize:  o.campaignBatch(),
						UseRanger:  true,
						Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: format}},
					}, o)
					if err != nil {
						return rows, err
					}
					sum += report.MeanDeltaLoss()
					count++
				}
			}
			row := Fig9Row{
				Model:     paperName(model),
				Family:    string(family),
				Format:    format.Name(),
				Bits:      node.Point.Bits,
				Accuracy:  node.Accuracy,
				MeanDelta: sum / float64(count),
			}
			rows = append(rows, row)
			if w != nil {
				fmt.Fprintf(w, "%-12s %-4s %-14s bits=%-2d acc=%.3f meanΔLoss=%.4f\n",
					row.Model, row.Family, row.Format, row.Bits, row.Accuracy, row.MeanDelta)
			}
		}
	}
	return rows, nil
}
