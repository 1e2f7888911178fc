// Formatsweep reproduces the Fig 4 use case interactively: sweep every
// format family across bitwidths for a CNN and a transformer and print the
// accuracy matrix, illustrating that the right format depends on the model
// ("tuning the number format to the DL model can provide improved
// performance better than a flat parameter choice", §IV-A).
//
//	go run ./examples/formatsweep
package main

import (
	"fmt"
	"log"

	"goldeneye"
	"goldeneye/internal/zoo"
)

var specsByWidth = map[int][]string{
	16: {"fp16", "fxp_1_7_8", "int16", "bfp_e5m10", "afp_e5m10"},
	8:  {"fp_e4m3", "fxp_1_3_4", "int8", "bfp_e5m2", "afp_e4m3"},
	6:  {"fp_e3m2", "fxp_1_2_3", "int6", "bfp_e5m1", "afp_e3m2"},
	4:  {"fp_e2m1", "fxp_1_1_2", "int4", "afp_e2m1"},
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	for _, name := range []string{"resnet_s", "vit_tiny"} {
		model, ds, err := zoo.Pretrained(name)
		if err != nil {
			return err
		}
		sim := goldeneye.Wrap(model, ds.ValX.Slice(0, 1))
		native := sim.Evaluate(ds.ValX, ds.ValY, 30, goldeneye.EmulationConfig{})
		fmt.Printf("\n%s — native fp32 accuracy %.4f\n", name, native)

		for _, width := range []int{16, 8, 6, 4} {
			fmt.Printf("  %2d-bit:", width)
			for _, spec := range specsByWidth[width] {
				format, err := goldeneye.ParseFormat(spec)
				if err != nil {
					return fmt.Errorf("%s: %w", spec, err)
				}
				acc := sim.Evaluate(ds.ValX, ds.ValY, 30, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
					Default: goldeneye.RoleFormats{Activations: format}, Params: format,
				}})
				fmt.Printf("  %s=%.3f", format.Name(), acc)
			}
			fmt.Println()
		}
	}
	fmt.Println("\nNote how AFP tracks the baseline at widths where plain FP has already collapsed,")
	fmt.Println("and how the CNN and the transformer prefer different low-width formats.")
	return nil
}
