// Resiliency reproduces the Fig 7 use case on one model: per-layer fault-
// injection campaigns into BFP and AFP, comparing data-value bit flips
// against hardware-metadata bit flips with the ΔLoss metric (§IV-C). The
// headline result — a single flip in BFP's shared exponent behaves like a
// multi-bit flip across the whole tensor — is visible directly in the
// output.
//
//	go run ./examples/resiliency [-n 300]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"goldeneye"
	"goldeneye/internal/zoo"
)

func main() {
	n := flag.Int("n", 300, "injections per layer and site")
	model := flag.String("model", "resnet_s", "model to study")
	flag.Parse()
	if err := run(*model, *n); err != nil {
		log.Fatal(err)
	}
}

func run(name string, injections int) error {
	model, ds, err := zoo.Pretrained(name)
	if err != nil {
		return err
	}
	sim := goldeneye.Wrap(model, ds.ValX.Slice(0, 1))
	pool := 48
	x, y := ds.ValX.Slice(0, pool), ds.ValY[:pool]

	for _, spec := range []string{"bfp_e5m5", "afp_e5m2"} {
		format, err := goldeneye.ParseFormat(spec)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s on %s — %d injections per layer/site, range detector ON\n",
			format.Name(), name, injections)
		fmt.Printf("%-28s %12s %12s %10s\n", "layer", "value ΔLoss", "meta ΔLoss", "amplif.")

		for _, layer := range sim.InjectableLayers() {
			var means [2]float64
			for i, site := range []goldeneye.Fault{{Site: goldeneye.SiteValue}, {Site: goldeneye.SiteMetadata}} {
				rep, err := sim.RunCampaign(context.Background(), goldeneye.CampaignConfig{
					Format:     format,
					Site:       site.Site,
					Target:     goldeneye.TargetNeuron,
					Layer:      layer,
					Injections: injections,
					Seed:       uint64(layer + 1),
					Pool:       &goldeneye.EvalPool{X: x, Y: y},
					UseRanger:  true,
					Assignment: &goldeneye.FormatAssignment{
						Default: goldeneye.RoleFormats{Activations: format},
					},
				})
				if err != nil {
					return err
				}
				means[i] = rep.MeanDeltaLoss()
			}
			amplification := 0.0
			if means[0] > 0 {
				amplification = means[1] / means[0]
			}
			fmt.Printf("%-28s %12.5f %12.5f %9.0fx\n",
				layerName(sim, layer), means[0], means[1], amplification)
		}
	}
	return nil
}

func layerName(sim *goldeneye.Simulator, index int) string {
	for _, l := range sim.Layers() {
		if l.Index == index {
			return fmt.Sprintf("%d:%s", index, l.Name)
		}
	}
	return fmt.Sprintf("%d", index)
}
