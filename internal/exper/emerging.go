package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/numfmt"
)

// EmergingRow compares an emerging format against the paper's five families
// at a similar storage budget.
type EmergingRow struct {
	Model    string
	Class    string // "8-bit" or "16-bit"
	Format   string
	Bits     int
	Accuracy float64
}

// Emerging evaluates the formats this repository implements beyond the
// paper — posit, logarithmic, and normal-float codebook quantization —
// against the classic families at matched widths, demonstrating the open
// Format interface absorbing "future number formats" (Table II's last
// capability row).
func Emerging(ctx context.Context, models []string, w io.Writer, o Options) ([]EmergingRow, error) {
	classes := []struct {
		name    string
		formats []numfmt.Format
	}{
		{
			name: "16-bit",
			formats: []numfmt.Format{
				numfmt.FP16(true), numfmt.FxP16(), numfmt.INT16(),
				numfmt.Posit16(), numfmt.LNS16(),
			},
		},
		{
			name: "8-bit",
			formats: []numfmt.Format{
				numfmt.FP8E4M3(true), numfmt.NewFxP(3, 4), numfmt.INT8(),
				numfmt.NewAFP(4, 3, true), numfmt.Posit8(), numfmt.LNS8(),
			},
		},
		{
			name: "4-bit",
			formats: []numfmt.Format{
				numfmt.NewFP(2, 1, true), numfmt.NewINT(4), numfmt.NF4(),
				numfmt.NewPosit(4, 0),
			},
		},
	}

	var rows []EmergingRow
	for _, name := range models {
		sim, ds, err := loadSim(name, o)
		if err != nil {
			return nil, err
		}
		vp := valPool(ds, o)
		for _, class := range classes {
			for _, format := range class.formats {
				if err := ctx.Err(); err != nil {
					return rows, err
				}
				acc := sim.EvaluatePool(vp, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
					Default: goldeneye.RoleFormats{Activations: format}, Params: format,
				}})
				row := EmergingRow{
					Model:    paperName(name),
					Class:    class.name,
					Format:   format.Name(),
					Bits:     format.BitWidth(),
					Accuracy: acc,
				}
				rows = append(rows, row)
				if w != nil {
					fmt.Fprintf(w, "%-12s %-7s %-14s bits=%-2d acc=%.3f\n",
						row.Model, row.Class, row.Format, row.Bits, row.Accuracy)
				}
			}
		}
	}
	return rows, nil
}
