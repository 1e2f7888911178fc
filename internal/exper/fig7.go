package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/numfmt"
)

// Fig7Row is one bar of Fig 7: the mean ΔLoss of a per-layer injection
// campaign for one model × format × site.
type Fig7Row struct {
	Model        string
	Format       string
	Layer        int
	LayerName    string
	Site         string
	MeanDelta    float64
	MismatchRate float64
	Injections   int
}

// Fig7 runs the resiliency study: for each model (the paper uses ResNet50
// and DeiT-base) and each of BFP e5m5 and AFP e5m2, inject N unique
// single-bit flips per layer into data values and into metadata, measuring
// mean ΔLoss per layer (paper §IV-C).
func Fig7(ctx context.Context, models []string, w io.Writer, o Options) ([]Fig7Row, error) {
	formats := []numfmt.Format{numfmt.BFPe5m5(), numfmt.AFPe5m2()}
	var rows []Fig7Row
	for _, name := range models {
		sim, ds, err := loadSim(name, o)
		if err != nil {
			return nil, err
		}
		// Options.CampaignBatch decides how many of the 1000 injections
		// share a forward pass; results are identical either way.
		pool := injPool(ds, 64, o)

		for _, format := range formats {
			for _, layer := range sim.InjectableLayers() {
				for _, site := range []inject.Site{inject.SiteValue, inject.SiteMetadata} {
					key := fmt.Sprintf("fig7/%s/%s/L%02d/%s", name, format.Name(), layer, site)
					report, err := runCell(ctx, sim, key, goldeneye.CampaignConfig{
						Format:     format,
						Site:       site,
						Target:     inject.TargetNeuron,
						Layer:      layer,
						Injections: o.injections(),
						Seed:       uint64(layer)*1000 + uint64(site),
						Pool:       pool,
						BatchSize:  o.campaignBatch(),
						UseRanger:  true,
						Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: format}},
					}, o)
					if err != nil {
						return rows, err
					}
					row := Fig7Row{
						Model:        paperName(name),
						Format:       format.Name(),
						Layer:        layer,
						LayerName:    layerName(sim, layer),
						Site:         site.String(),
						MeanDelta:    report.MeanDeltaLoss(),
						MismatchRate: report.MismatchRate(),
						Injections:   report.Injections,
					}
					rows = append(rows, row)
					if w != nil {
						fmt.Fprintf(w, "%-12s %-12s layer %2d (%-24s) %-8s ΔLoss=%8.4f mismatch=%.3f\n",
							row.Model, row.Format, row.Layer, row.LayerName, row.Site,
							row.MeanDelta, row.MismatchRate)
					}
				}
			}
		}
	}
	return rows, nil
}

func layerName(sim *goldeneye.Simulator, index int) string {
	for _, l := range sim.Layers() {
		if l.Index == index {
			return l.Name
		}
	}
	return fmt.Sprintf("layer%d", index)
}
