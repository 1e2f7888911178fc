package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/numfmt"
)

// WvsNRow contrasts weight-targeted and neuron-targeted faults at one
// layer. The paper studies neurons "as the more complex case, since weight
// injections can be performed offline" (§V-B); this driver quantifies how
// the two targets actually differ.
type WvsNRow struct {
	Model        string
	Format       string
	Layer        int
	Target       string
	MeanDelta    float64
	MismatchRate float64
}

// WeightsVsNeurons runs matched campaigns against weights and neurons for
// every weighted layer. Weight faults corrupt a parameter once and the
// whole inference sees it; neuron faults corrupt one activation in flight.
func WeightsVsNeurons(ctx context.Context, model string, format numfmt.Format, w io.Writer, o Options) ([]WvsNRow, error) {
	sim, ds, err := loadSim(model, o)
	if err != nil {
		return nil, err
	}
	pool := injPool(ds, 48, o)

	var rows []WvsNRow
	for _, layer := range sim.WeightedLayers() {
		for _, target := range []inject.Target{inject.TargetWeight, inject.TargetNeuron} {
			key := fmt.Sprintf("wvn/%s/%s/L%02d/%s", model, format.Name(), layer, target)
			rep, err := runCell(ctx, sim, key, goldeneye.CampaignConfig{
				Format:     format,
				Site:       inject.SiteValue,
				Target:     target,
				Layer:      layer,
				Injections: orDefault(o.Injections, 500),
				Seed:       uint64(layer)<<4 | uint64(target),
				Pool:       pool,
				BatchSize:  o.campaignBatch(),
				UseRanger:  true,
				Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: format}},
			}, o)
			if err != nil {
				return rows, err
			}
			row := WvsNRow{
				Model:        paperName(model),
				Format:       format.Name(),
				Layer:        layer,
				Target:       target.String(),
				MeanDelta:    rep.MeanDeltaLoss(),
				MismatchRate: rep.MismatchRate(),
			}
			rows = append(rows, row)
			if w != nil {
				fmt.Fprintf(w, "%-12s %-12s layer %2d %-7s ΔLoss=%8.4f mismatch=%.3f\n",
					row.Model, row.Format, row.Layer, row.Target, row.MeanDelta, row.MismatchRate)
			}
		}
	}
	return rows, nil
}
