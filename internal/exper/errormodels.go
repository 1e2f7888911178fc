package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/numfmt"
)

// ErrorModelRow is one error model's campaign outcome, extending the
// paper's "fast DNN reliability analysis for different error models" use
// case beyond the single-bit transient flip.
type ErrorModelRow struct {
	Model        string
	Format       string
	Kind         string
	Site         string
	MeanDelta    float64
	MismatchRate float64
}

// ErrorModels compares the four error models (transient flip, stuck-at-0,
// stuck-at-1, burst) for one model under one format, at value and metadata
// sites. Burst faults dominate single-element models; the relative severity
// of the two stuck-at directions depends on the resting bit values of the
// targeted layer (a stuck-at matching the stored bit is a no-op).
func ErrorModels(ctx context.Context, model string, format numfmt.Format, w io.Writer, o Options) ([]ErrorModelRow, error) {
	sim, ds, err := loadSim(model, o)
	if err != nil {
		return nil, err
	}
	pool := injPool(ds, 48, o)
	layer := sim.InjectableLayers()[len(sim.InjectableLayers())/2]

	kinds := []inject.FaultKind{
		inject.KindFlip, inject.KindStuckAt0, inject.KindStuckAt1, inject.KindBurst,
	}
	sites := []inject.Site{inject.SiteValue}
	if inject.MetaBitWidth(format) > 0 {
		sites = append(sites, inject.SiteMetadata)
	}

	var rows []ErrorModelRow
	for _, site := range sites {
		for _, kind := range kinds {
			key := fmt.Sprintf("errormodels/%s/%s/%s/%s", model, format.Name(), kind, site)
			rep, err := runCell(ctx, sim, key, goldeneye.CampaignConfig{
				Format:     format,
				Site:       site,
				Target:     inject.TargetNeuron,
				FaultKind:  kind,
				Layer:      layer,
				Injections: orDefault(o.Injections, 500),
				Seed:       uint64(kind)<<8 | uint64(site),
				Pool:       pool,
				BatchSize:  o.campaignBatch(),
				UseRanger:  true,
				Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: format}},
			}, o)
			if err != nil {
				return rows, err
			}
			row := ErrorModelRow{
				Model:        paperName(model),
				Format:       format.Name(),
				Kind:         kind.String(),
				Site:         site.String(),
				MeanDelta:    rep.MeanDeltaLoss(),
				MismatchRate: rep.MismatchRate(),
			}
			rows = append(rows, row)
			if w != nil {
				fmt.Fprintf(w, "%-12s %-14s %-10s %-9s ΔLoss=%8.4f mismatch=%.3f\n",
					row.Model, row.Format, row.Kind, row.Site, row.MeanDelta, row.MismatchRate)
			}
		}
	}
	return rows, nil
}
