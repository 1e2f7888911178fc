package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/inject"
	"goldeneye/internal/numfmt"
)

// AblationRow is one point of the BFP block-size ablation: accuracy and
// metadata-fault resilience as the shared-exponent block shrinks from the
// whole tensor (the paper's configuration, whose accuracy drops Fig 6
// attributes to "a large shared block size across an entire layer") down
// to fine-grained blocks.
type AblationRow struct {
	Model       string
	BlockSize   int // 0 = whole tensor
	Accuracy    float64
	MetaDelta   float64 // mean ΔLoss of shared-exponent faults
	MetaRegBits int     // total metadata register bits for a 4096-elem tensor
}

// AblationBFPBlock sweeps BFP block sizes for one model, measuring the
// accuracy/resilience/metadata-cost trade-off the block size controls:
// smaller blocks preserve small-magnitude values (higher accuracy) and
// shrink each fault's blast radius, at the cost of more exponent registers.
func AblationBFPBlock(ctx context.Context, model string, w io.Writer, o Options) ([]AblationRow, error) {
	sim, ds, err := loadSim(model, o)
	if err != nil {
		return nil, err
	}
	vp := valPool(ds, o)
	pool := injPool(ds, 32, o)
	layer := sim.InjectableLayers()[len(sim.InjectableLayers())/2]

	var rows []AblationRow
	for _, block := range []int{0, 256, 64, 16, 4} {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		format := numfmt.NewBFP(5, 3, block)
		acc := sim.EvaluatePool(vp, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
			Default: goldeneye.RoleFormats{Activations: format}, Params: format,
		}})
		rep, err := runCell(ctx, sim, fmt.Sprintf("ablation/%s/block%04d", model, block), goldeneye.CampaignConfig{
			Format:     format,
			Site:       inject.SiteMetadata,
			Target:     inject.TargetNeuron,
			Layer:      layer,
			Injections: orDefault(o.Injections, 300),
			Seed:       uint64(block + 1),
			Pool:       pool,
			BatchSize:  o.campaignBatch(),
			UseRanger:  true,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: format}},
		}, o)
		if err != nil {
			return rows, err
		}
		row := AblationRow{
			Model:       paperName(model),
			BlockSize:   block,
			Accuracy:    acc,
			MetaDelta:   rep.MeanDeltaLoss(),
			MetaRegBits: format.MetaBits(4096),
		}
		rows = append(rows, row)
		if w != nil {
			label := fmt.Sprintf("%d", block)
			if block == 0 {
				label = "whole-tensor"
			}
			fmt.Fprintf(w, "%-12s block=%-12s acc=%.4f  metadata ΔLoss=%.4f  reg bits/4096 elems=%d\n",
				row.Model, label, row.Accuracy, row.MetaDelta, row.MetaRegBits)
		}
	}
	return rows, nil
}
