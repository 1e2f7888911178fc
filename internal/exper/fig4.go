package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/dse"
)

// Fig4Row is one point of Fig 4: a model's validation accuracy under one
// format family at one bitwidth (weights and neurons emulated, no
// fine-tuning — "the results are purely from changing the number format").
type Fig4Row struct {
	Model    string
	Family   string
	Bits     int
	Format   string
	Accuracy float64
}

// Fig4Bitwidths are the paper's swept widths.
var Fig4Bitwidths = []int{32, 16, 12, 8, 4}

// fig4Point picks each family's geometry at a given total width, following
// the paper's convention of named formats where they exist (FP32, FP16,
// FP8 e4m3, FP e2m5 at 8-bit alternatives, etc.).
func fig4Point(family dse.Family, bits int) dse.Point {
	p := dse.Point{Family: family, Bits: bits}
	switch family {
	case dse.FamilyFP, dse.FamilyAFP:
		switch bits {
		case 32:
			p.Radix = 23 // e8m23
		case 16:
			p.Radix = 10 // e5m10
		case 12:
			p.Radix = 6 // e5m6
		case 8:
			p.Radix = 3 // e4m3
		case 4:
			p.Radix = 1 // e2m1
		default:
			p.Radix = bits / 2
		}
		if family == dse.FamilyAFP && bits == 32 {
			p.Radix = 23
			// AFP's bias register caps the exponent at 8 bits; e8m23 fits.
		}
	case dse.FamilyFxP:
		p.Radix = bits / 2
	case dse.FamilyBFP:
		p.Radix = 5 // shared-exponent width; per-value bits-1 mantissa
	}
	return p
}

// Fig4 sweeps accuracy versus bitwidth for each format family on the given
// models (paper uses ResNet18 and DeiT-tiny).
func Fig4(ctx context.Context, models []string, w io.Writer, o Options) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, name := range models {
		sim, ds, err := loadSim(name, o)
		if err != nil {
			return nil, err
		}
		vp := valPool(ds, o)

		native := sim.EvaluatePool(vp, goldeneye.EmulationConfig{})
		rows = append(rows, Fig4Row{Model: paperName(name), Family: "native", Bits: 32, Format: "fp32", Accuracy: native})
		if w != nil {
			fmt.Fprintf(w, "%-12s %-6s bits=%-2d %-14s acc=%.3f (baseline)\n", paperName(name), "native", 32, "fp32", native)
		}

		for _, family := range dse.Families() {
			for _, bits := range Fig4Bitwidths {
				if err := ctx.Err(); err != nil {
					return rows, err
				}
				pt := fig4Point(family, bits)
				format, err := dse.MakeFormat(pt)
				if err != nil {
					continue // geometry not expressible at this width
				}
				acc := sim.EvaluatePool(vp, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
					Default: goldeneye.RoleFormats{Activations: format}, Params: format,
				}})
				rows = append(rows, Fig4Row{
					Model:    paperName(name),
					Family:   string(family),
					Bits:     bits,
					Format:   format.Name(),
					Accuracy: acc,
				})
				if w != nil {
					fmt.Fprintf(w, "%-12s %-6s bits=%-2d %-14s acc=%.3f\n",
						paperName(name), family, bits, format.Name(), acc)
				}
			}
		}
	}
	return rows, nil
}
