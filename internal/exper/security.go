package exper

import (
	"context"
	"fmt"
	"io"

	"goldeneye"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/tensor"
	"goldeneye/internal/train"
)

// SecurityRow is one point of the §V-D security use case: a model's
// accuracy on FGSM-adversarial inputs when inference runs under a given
// number format ("GoldenEye can be used to simulate different number
// formats for a given adversarial attack, and be used to assess the
// attack's efficacy").
type SecurityRow struct {
	Model      string
	Format     string
	Epsilon    float64
	CleanAcc   float64
	AdvAcc     float64
	AttackDrop float64 // CleanAcc − AdvAcc
}

// FGSM crafts fast-gradient-sign-method adversarial examples against the
// model in its native FP32 configuration: x' = x + ε·sign(∇ₓ loss). Input
// gradients need a backward pass, which for BatchNorm requires a training-
// mode forward; the running statistics that forward would perturb are
// snapshotted and restored, so crafting leaves the model untouched.
func FGSM(model nn.Module, x *tensor.Tensor, y []int, eps float64) *tensor.Tensor {
	var frozen [][]float32
	params := model.Params()
	for _, p := range params {
		if p.Frozen {
			frozen = append(frozen, append([]float32(nil), p.Value.Data()...))
		}
	}
	ctx := &nn.Context{Training: true}
	logits := nn.Forward(ctx, model, x)
	_, grad := train.SoftmaxCrossEntropy(logits, y)
	dx := model.Backward(grad)
	nn.ZeroGrads(model) // attack crafting must not leave gradient residue
	i := 0
	for _, p := range params {
		if p.Frozen {
			copy(p.Value.Data(), frozen[i])
			i++
		}
	}
	adv := x.Clone()
	data := adv.Data()
	for i, g := range dx.Data() {
		switch {
		case g > 0:
			data[i] += float32(eps)
		case g < 0:
			data[i] -= float32(eps)
		}
	}
	return adv
}

// SecurityFGSM crafts FGSM examples once (against native FP32) and then
// measures how well the attack transfers to the same model running under
// each emulated number format.
func SecurityFGSM(ctx context.Context, model string, epsilons []float64, w io.Writer, o Options) ([]SecurityRow, error) {
	if len(epsilons) == 0 {
		epsilons = []float64{0.05, 0.15}
	}
	sim, ds, err := loadSim(model, o)
	if err != nil {
		return nil, err
	}
	vp := valPool(ds, o)
	x, y := vp.X, vp.Y

	formats := []numfmt.Format{
		nil, // native
		numfmt.FP8E4M3(true),
		numfmt.INT8(),
		numfmt.BFPe5m5(),
		numfmt.AFPe5m2(),
		numfmt.Posit8(),
		numfmt.NF4(),
	}

	var rows []SecurityRow
	for _, eps := range epsilons {
		adv := FGSM(sim.Model(), x, y, eps)
		for _, format := range formats {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			cfg := goldeneye.EmulationConfig{}
			name := "native_fp32"
			if format != nil {
				cfg = goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{
					Default: goldeneye.RoleFormats{Activations: format}, Params: format,
				}}
				name = format.Name()
			}
			clean := sim.EvaluatePool(vp, cfg)
			advAcc := sim.Evaluate(adv, y, o.batchSize(), cfg)
			row := SecurityRow{
				Model:      paperName(model),
				Format:     name,
				Epsilon:    eps,
				CleanAcc:   clean,
				AdvAcc:     advAcc,
				AttackDrop: clean - advAcc,
			}
			rows = append(rows, row)
			if w != nil {
				fmt.Fprintf(w, "%-12s %-14s ε=%.2f clean=%.3f adv=%.3f drop=%.3f\n",
					row.Model, row.Format, eps, clean, advAcc, row.AttackDrop)
			}
		}
	}
	return rows, nil
}
