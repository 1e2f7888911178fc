package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/sampling"
)

// BitSensRow aggregates a campaign's outcomes by the flipped bit position,
// exposing which bits of a format's encoding are vulnerable. The paper uses
// exactly this lens for its BFP sign-bit finding: "the sign bit in BFP is
// more vulnerable than in FP, since the bitwidth of the data value is now
// shorter ... BFP magnifies the importance of the sign bit via the shared
// exponent design" (§IV-C).
type BitSensRow struct {
	Model        string
	Format       string
	Bit          int
	Role         string // sign | exponent | mantissa | fraction | code
	Injections   int
	MeanDelta    float64
	MismatchRate float64
}

// bitRole names a bit position within a format's encoding. The sampling
// package owns the classification, so experiment rows and sampling strata
// agree on every role name.
func bitRole(format numfmt.Format, bit int) string {
	return sampling.BitRole(format, bit)
}

// BitSensitivity runs a value-site campaign with tracing and groups the
// outcomes by bit position. The range detector is left OFF so each bit's
// raw blast radius is visible (with it on, clamping flattens the profile —
// which is precisely what the detector is for).
func BitSensitivity(ctx context.Context, model string, format numfmt.Format, w io.Writer, o Options) ([]BitSensRow, error) {
	sim, ds, err := loadSim(model, o)
	if err != nil {
		return nil, err
	}
	pool := injPool(ds, 48, o)
	layer := sim.InjectableLayers()[len(sim.InjectableLayers())/2]
	report, err := sim.RunCampaign(ctx, goldeneye.CampaignConfig{
		Format:     format,
		Site:       inject.SiteValue,
		Target:     inject.TargetNeuron,
		Layer:      layer,
		Injections: orDefault(o.Injections, 2000),
		Seed:       31,
		Pool:       pool,
		BatchSize:  o.campaignBatch(),
		UseRanger:  false,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: format}},
		KeepTrace:  true,
	})
	if err != nil {
		return nil, err
	}

	width := format.BitWidth()
	sums := make([]float64, width)
	mism := make([]int, width)
	counts := make([]int, width)
	for _, out := range report.Trace {
		b := out.Fault.Bit
		sums[b] += out.DeltaLoss
		counts[b]++
		if out.Mismatch {
			mism[b]++
		}
	}
	rows := make([]BitSensRow, 0, width)
	for b := width - 1; b >= 0; b-- {
		if counts[b] == 0 {
			continue
		}
		row := BitSensRow{
			Model:        paperName(model),
			Format:       format.Name(),
			Bit:          b,
			Role:         bitRole(format, b),
			Injections:   counts[b],
			MeanDelta:    sums[b] / float64(counts[b]),
			MismatchRate: float64(mism[b]) / float64(counts[b]),
		}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprintf(w, "%-12s %-14s bit %2d (%-8s) n=%-4d ΔLoss=%8.4f mismatch=%.3f\n",
				row.Model, row.Format, row.Bit, row.Role, row.Injections,
				row.MeanDelta, row.MismatchRate)
		}
	}
	return rows, nil
}
