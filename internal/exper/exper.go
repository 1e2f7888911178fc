// Package exper contains one driver per table and figure of the paper's
// evaluation. Each driver returns structured rows (so tests and the bench
// harness can assert on shapes) and can render itself as text for the
// cmd/experiments tool. DESIGN.md §3 maps every driver to its paper
// artifact; EXPERIMENTS.md records paper-vs-measured outcomes.
package exper

import (
	"context"
	"fmt"
	"io"
	"strings"

	"goldeneye"
	"goldeneye/internal/checkpoint"
	"goldeneye/internal/dataset"
	"goldeneye/internal/detect"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/zoo"
)

// Options tunes experiment cost. Zero values select the defaults used in
// EXPERIMENTS.md; tests and benches shrink them.
type Options struct {
	// ValSamples caps how many validation samples accuracy evaluations
	// use (0 = all).
	ValSamples int

	// Injections is the per-layer, per-site campaign size (0 = 1000, the
	// paper's count).
	Injections int

	// BatchSize for accuracy evaluations (0 = 30).
	BatchSize int

	// CampaignBatch packs this many distinct faults per forward pass in
	// injection campaigns (0 = the serial batch-1 path). Batched campaign
	// reports are bit-identical to serial under the same seed, so this is
	// purely a throughput knob — results and checkpoint hashes don't
	// change with it.
	CampaignBatch int

	// ZooDir overrides the pre-trained model cache location ("" = default).
	ZooDir string

	// Checkpoint, when non-nil, persists per-cell campaign state so an
	// interrupted sweep resumes at (or inside) the first incomplete cell.
	// Because fault sequences are deterministic in the seed, a resumed
	// sweep's output is bit-identical to an uninterrupted run's.
	Checkpoint *checkpoint.Store

	// Detectors names the fault-detection pipeline every campaign cell
	// arms (any of ranger, sentinel, dmr, abft); empty means none. Cells
	// on one model, format and pool share their calibration through the
	// process's calibration cache, with or without a checkpoint store.
	Detectors []string

	// Recovery is the recovery policy paired with Detectors: "" or "none",
	// "clamp", "zero", "reexecute", "abort".
	Recovery string
}

// applyDetectors wires the sweep-level detector options into one cell's
// campaign config.
func (o Options) applyDetectors(cfg *goldeneye.CampaignConfig) error {
	if len(o.Detectors) == 0 {
		return nil
	}
	specs, err := goldeneye.ParseDetectors(strings.Join(o.Detectors, ","))
	if err != nil {
		return err
	}
	policy, err := goldeneye.ParseRecovery(o.Recovery)
	if err != nil {
		return err
	}
	cfg.Detectors = specs
	cfg.Recovery = policy
	return nil
}

func (o Options) valSamples() int { return orDefault(o.ValSamples, 300) }
func (o Options) injections() int { return orDefault(o.Injections, 1000) }
func (o Options) batchSize() int  { return orDefault(o.BatchSize, 30) }

// campaignBatch resolves the campaign pack size; the explicit 1 keeps
// campaigns on the serial path regardless of a pool's eval-batch geometry.
func (o Options) campaignBatch() int { return orDefault(o.CampaignBatch, 1) }

func orDefault(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// loadSim returns a wrapped pre-trained model plus its evaluation pool.
func loadSim(name string, o Options) (*goldeneye.Simulator, *dataset.Dataset, error) {
	var (
		model nn.Module
		ds    *dataset.Dataset
		err   error
	)
	if o.ZooDir != "" {
		model, ds, err = zoo.PretrainedIn(o.ZooDir, name)
	} else {
		model, ds, err = zoo.Pretrained(name)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("load %s: %w", name, err)
	}
	sim := goldeneye.Wrap(model, ds.ValX)
	return sim, ds, nil
}

// valPool returns the experiment's validation subset as an evaluation pool
// at the accuracy-evaluation batch geometry.
func valPool(ds *dataset.Dataset, o Options) *goldeneye.EvalPool {
	n := o.valSamples()
	if n > ds.ValLen() {
		n = ds.ValLen()
	}
	return &goldeneye.EvalPool{X: ds.ValX.Slice(0, n), Y: ds.ValY[:n], Batch: o.batchSize()}
}

// injPool returns a capped evaluation pool for injection campaigns. A
// modest cap keeps 1000-injection campaigns tractable; Options.CampaignBatch
// (not the pool's eval-batch geometry) decides how many faults share a
// forward pass.
func injPool(ds *dataset.Dataset, cap int, o Options) *goldeneye.EvalPool {
	n := min(cap, ds.ValLen())
	return &goldeneye.EvalPool{X: ds.ValX.Slice(0, n), Y: ds.ValY[:n], Batch: o.batchSize()}
}

// paperName maps this repository's model names to the paper models they
// stand in for, so experiment output reads like the paper's figures.
func paperName(model string) string {
	switch model {
	case "resnet_s":
		return "ResNet18*"
	case "resnet_m":
		return "ResNet50*"
	case "vit_tiny":
		return "DeiT-tiny*"
	case "vit_small":
		return "DeiT-base*"
	default:
		return model
	}
}

// CellHash fingerprints the campaign parameters that determine a cell's
// deterministic result; a persisted cell whose hash differs (sweep re-run
// with different flags) is discarded instead of resumed. The campaign
// service keys its content-addressed result cache with the same hash, so
// identical jobs are served from cache instead of re-running.
func CellHash(cfg goldeneye.CampaignConfig) uint64 {
	// BatchSize stays out of the hash on purpose: batched campaigns are
	// bit-identical to serial, so a cell computed at one batch size resumes
	// correctly at any other.
	n := 0
	if cfg.Pool != nil {
		n = cfg.Pool.Len()
	}
	// The format name guards against nil: assignment-driven campaigns may
	// carry no uniform Format (the injection format resolves from the
	// assignment), and "" is unambiguous because no registered format has
	// an empty name.
	formatName := ""
	if cfg.Format != nil {
		formatName = cfg.Format.Name()
	}
	// A legacy-shaped assignment hashes as the two flags that spelled it
	// before assignments existed (see CampaignConfig.LegacyFlags), so those
	// cell hashes stay valid and both spellings of a campaign share one.
	emulate, quantize, legacy := cfg.LegacyFlags()
	parts := []interface{}{
		formatName, cfg.Site, cfg.Target, cfg.FaultKind, cfg.Layer,
		cfg.Injections, cfg.FlipsPerInjection, cfg.Seed, n,
		cfg.UseRanger, emulate, quantize, cfg.MeasureDMR,
	}
	// Detector configuration joins the hash only when present, keeping every
	// pre-detector cell hash (and persisted sweep state) valid.
	if len(cfg.Detectors) > 0 {
		for _, name := range detect.Names(cfg.Detectors) {
			parts = append(parts, name)
		}
		parts = append(parts, cfg.Recovery.String())
	}
	// Same append-only rule for every other format assignment: its
	// canonical rendering joins the hash.
	if cfg.Assignment != nil && !legacy {
		parts = append(parts, "assignment", cfg.Assignment.Canonical())
	}
	// Shard geometry joins the hash only for actual shards (ShardCount > 1),
	// so unsharded hashes — every pre-fleet cell and cached service result —
	// stay valid, while each shard of a distributed campaign gets its own
	// cache identity (the fleet's idempotent re-dispatch depends on a
	// completed shard being served from cache rather than re-executed).
	if cfg.ShardCount > 1 {
		parts = append(parts, "shard", cfg.ShardIndex, cfg.ShardCount)
	}
	return checkpoint.HashConfig(parts...)
}

// runCell executes one sweep cell through the checkpoint store: a completed
// cell is served from its checkpoint without re-running, a partially
// completed one resumes at its recorded injection, and the (possibly
// partial) outcome is persisted before returning. Without a store — or for
// KeepTrace campaigns, whose traces are not persisted — it falls through to
// a plain RunCampaign.
func runCell(ctx context.Context, sim *goldeneye.Simulator, key string, cfg goldeneye.CampaignConfig, o Options) (*goldeneye.CampaignReport, error) {
	if err := o.applyDetectors(&cfg); err != nil {
		return nil, err
	}
	st := o.Checkpoint
	if st == nil || cfg.KeepTrace {
		return sim.RunCampaign(ctx, cfg)
	}
	hash := CellHash(cfg)
	cell, err := st.LoadMatching(key, hash)
	if err != nil {
		return nil, err
	}
	if cell != nil {
		if cell.Done {
			return cell.Report, nil
		}
		// Only a proper prefix resumes. A failed cell whose last injection
		// tripped MaxAborts may cover every draw; resuming it would run
		// nothing and save it as done, so it re-runs (and fails) instead.
		if n := cell.Report.Injections + cell.Report.Aborted; n > 0 && n < cfg.Injections {
			cfg.Resume = cell.Report
		}
	}
	rep, runErr := sim.RunCampaign(ctx, cfg)
	if rep != nil {
		// Persist even interrupted cells: the partial report covers every
		// executed draw (recorded + aborted), which is exactly the fault-
		// sequence prefix a resume must replay.
		save := &checkpoint.Cell{Key: key, ConfigHash: hash, Done: runErr == nil, Report: rep}
		if serr := st.Save(save); serr != nil && runErr == nil {
			runErr = serr
		}
	}
	return rep, runErr
}

// Table1 renders the dynamic-range table (paper Table I).
func Table1(w io.Writer) []numfmt.RangeRow {
	rows := numfmt.Table1Rows()
	if w != nil {
		fmt.Fprintf(w, "%-22s %14s %14s %12s\n", "Data Type", "Abs Max", "Abs Min", "Range (dB)")
		for _, r := range rows {
			suffix := ""
			if r.Movable {
				suffix = " (movable range)"
			}
			fmt.Fprintf(w, "%-22s %14.4g %14.4g %12.2f%s\n", r.Label, r.AbsMax, r.MinPos, r.RangeDB, suffix)
		}
	}
	return rows
}
