// Faulttrain demonstrates the future-direction capability the paper
// sketches in §V-D: because GoldenEye can inject errors during forward
// passes of training, it can be used to explore resilient-training
// routines. Two identical networks are trained on the same data — one
// normally, one with a random single-bit FP8 fault injected into every
// CONV/LINEAR activation tensor each batch (plus the activation sanitizer
// and gradient clipping such training needs to stay stable) — and both are
// then stressed under an identical injection campaign.
//
// At this workload's scale the fault-trained model matches the baseline's
// clean accuracy while its fault response stays comparable — the honest
// takeaway being that the *platform mechanism* works end to end; whether a
// training recipe yields real hardening is exactly the open research
// question the paper defers to future work.
//
//	go run ./examples/faulttrain
package main

import (
	"context"
	"fmt"
	"log"

	"goldeneye"
	"goldeneye/internal/dataset"
	"goldeneye/internal/inject"
	"goldeneye/internal/models"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
	"goldeneye/internal/train"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds := dataset.New(dataset.Default())
	format := numfmt.FP8E4M3(true)

	base := train.Config{
		Epochs: 12, BatchSize: 25, LR: 0.05, Momentum: 0.9,
		WeightDecay: 1e-4, StopAtTrainAcc: 0.999,
	}

	// Plain training.
	plain, err := models.Build("resnet_s", ds.Config.Classes, 1)
	if err != nil {
		return err
	}
	plainRes := train.Fit(plain, ds, base)

	// Fault-aware training: every CONV/LINEAR activation has a 10% chance
	// per layer per batch of receiving one random single-bit flip.
	hardened, err := models.Build("resnet_s", ds.Config.Classes, 1)
	if err != nil {
		return err
	}
	hooks := nn.NewHookSet()
	hooks.PostForward(nn.DefaultLayers(),
		inject.RandomNeuronHook(format, rng.New(7), inject.SiteValue, 1.0))
	// Sanitize after injection, the way the range detector does during
	// campaigns: without it, one corrupted activation poisons BatchNorm's
	// running statistics and the evaluation-mode network never recovers.
	hooks.PostForward(nn.AllLayers(), func(_ nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		return t.Apply(func(v float32) float32 {
			switch {
			case v != v: // NaN
				return 0
			case v > 64:
				return 64
			case v < -64:
				return -64
			}
			return v
		})
	})
	faultCfg := base
	faultCfg.Hooks = hooks
	faultCfg.ClipNorm = 5
	faultRes := train.Fit(hardened, ds, faultCfg)

	fmt.Printf("clean validation accuracy: plain %.4f, fault-trained %.4f\n",
		plainRes.ValAcc, faultRes.ValAcc)

	// Now stress both under an identical campaign.
	for _, entry := range []struct {
		name  string
		model nn.Module
	}{{name: "plain", model: plain}, {name: "fault-trained", model: hardened}} {
		sim := goldeneye.Wrap(entry.model, ds.ValX.Slice(0, 1))
		rep, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
			Format:     format,
			Site:       goldeneye.SiteValue,
			Target:     goldeneye.TargetNeuron,
			Layer:      sim.InjectableLayers()[1],
			Injections: 600,
			Seed:       42,
			Pool:       &goldeneye.EvalPool{X: ds.ValX.Slice(0, 48), Y: ds.ValY[:48]},
			UseRanger:  false, // expose the raw fault response
			Assignment: &goldeneye.FormatAssignment{
				Default: goldeneye.RoleFormats{Activations: format},
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-14s under faults: mismatch=%.4f  mean ΔLoss=%.5f\n",
			entry.name, rep.MismatchRate(), rep.MeanDeltaLoss())
	}
	return nil
}
