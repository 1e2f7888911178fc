package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/metrics"
	"goldeneye/internal/numfmt"
)

// ConvergenceRow tracks both resiliency metrics' confidence intervals as a
// campaign progresses, substantiating the paper's §IV-C claim that ΔLoss
// converges asymptotically faster than mismatch counting.
type ConvergenceRow struct {
	Injections     int
	DeltaLossMean  float64
	DeltaLossRelCI float64
	MismatchRate   float64
	MismatchRelCI  float64
}

// Convergence runs one KeepTrace campaign and reports the running relative
// 95% confidence interval of each metric at checkpoints.
func Convergence(ctx context.Context, model string, format numfmt.Format, layer int, w io.Writer, o Options) ([]ConvergenceRow, error) {
	sim, ds, err := loadSim(model, o)
	if err != nil {
		return nil, err
	}
	if layer < 0 {
		inj := sim.InjectableLayers()
		layer = inj[len(inj)/2]
	}
	pool := injPool(ds, 64, o)
	report, err := sim.RunCampaign(ctx, goldeneye.CampaignConfig{
		Format:     format,
		Site:       inject.SiteValue,
		Target:     inject.TargetNeuron,
		Layer:      layer,
		Injections: o.injections(),
		Seed:       42,
		Pool:       pool,
		BatchSize:  o.campaignBatch(),
		UseRanger:  true,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: format}},
		KeepTrace:  true,
	})
	if err != nil {
		return nil, err
	}

	var (
		dl, mm metrics.RunningStat
		rows   []ConvergenceRow
	)
	checkpoint := 25
	for i, out := range report.Trace {
		dl.Add(out.DeltaLoss)
		if out.Mismatch {
			mm.Add(1)
		} else {
			mm.Add(0)
		}
		if i+1 == checkpoint || i+1 == len(report.Trace) {
			rows = append(rows, ConvergenceRow{
				Injections:     i + 1,
				DeltaLossMean:  dl.Mean(),
				DeltaLossRelCI: dl.RelativeCI(),
				MismatchRate:   mm.Mean(),
				MismatchRelCI:  mm.RelativeCI(),
			})
			checkpoint *= 2
		}
	}
	if w != nil {
		fmt.Fprintf(w, "%-10s %-14s layer %d\n", paperName(model), format.Name(), layer)
		fmt.Fprintf(w, "%10s %14s %14s %14s %14s\n", "n", "ΔLoss mean", "ΔLoss relCI", "mismatch", "mismatch relCI")
		for _, r := range rows {
			fmt.Fprintf(w, "%10d %14.4f %14.4f %14.4f %14.4f\n",
				r.Injections, r.DeltaLossMean, r.DeltaLossRelCI, r.MismatchRate, r.MismatchRelCI)
		}
	}
	return rows, nil
}
