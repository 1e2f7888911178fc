// Quickstart: load a pre-trained model, emulate a handful of number
// formats, and compare validation accuracy — the paper's first use case
// (§IV-A, functional simulation for accuracy) in ~40 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"goldeneye"
	"goldeneye/internal/zoo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The zoo trains the model on the synthetic dataset the first time and
	// caches the weights; subsequent runs load in milliseconds.
	model, ds, err := zoo.Pretrained("resnet_s")
	if err != nil {
		return err
	}
	sim := goldeneye.Wrap(model, ds.ValX.Slice(0, 1))

	specs := []string{
		"fp16", "bfloat16", "fp8_e4m3", "fxp_1_7_8",
		"int8", "bfp_e5m5", "afp_e5m2",
	}

	native := sim.Evaluate(ds.ValX, ds.ValY, 30, goldeneye.EmulationConfig{})
	fmt.Printf("%-12s accuracy=%.4f (baseline)\n", "native fp32", native)

	for _, spec := range specs {
		format, err := goldeneye.ParseFormat(spec)
		if err != nil {
			return err
		}
		acc := sim.Evaluate(ds.ValX, ds.ValY, 30, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
			Params:  format,                                     // convert weights offline
			Default: goldeneye.RoleFormats{Activations: format}, // quantize activations via layer hooks
		}})
		fmt.Printf("%-12s accuracy=%.4f (Δ %+0.4f)\n", format.Name(), acc, acc-native)
	}
	return nil
}
