package train

import (
	"fmt"
	"io"
	"math"

	"goldeneye/internal/dataset"
	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// Config parameterizes a training run.
type Config struct {
	Epochs      int
	BatchSize   int
	LR          float32
	Momentum    float32
	WeightDecay float32

	// StopAtTrainAcc ends training early once an epoch's training accuracy
	// reaches this threshold (0 disables early stopping).
	StopAtTrainAcc float64

	// Log receives one line per epoch (nil silences logging).
	Log io.Writer

	// Hooks, when non-nil, are threaded through every forward pass, which
	// is how number-format emulation during training works (paper §V-B).
	Hooks *nn.HookSet

	// ClipNorm, when positive, rescales each step's global gradient norm
	// to at most this value. Fault-aware training (§V-D) needs it: an
	// injected exponent flip otherwise produces one enormous gradient
	// step that derails optimization.
	ClipNorm float64
}

// Result summarizes a completed training run.
type Result struct {
	Epochs    int
	FinalLoss float64
	TrainAcc  float64
	ValAcc    float64
}

// Fit trains model on ds with SGD. It is fully deterministic: batch order
// comes from the dataset's seeded shuffler.
func Fit(model nn.Module, ds *dataset.Dataset, cfg Config) Result {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		panic(fmt.Sprintf("train: implausible config %+v", cfg))
	}
	opt := NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	ctx := nn.NewContext(cfg.Hooks)
	ctx.Training = true

	var res Result
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := ds.ShuffledOrder(epoch)
		var (
			lossSum float64
			correct int
			seen    int
		)
		for lo := 0; lo+cfg.BatchSize <= len(order); lo += cfg.BatchSize {
			x, y := ds.GatherTrain(order[lo : lo+cfg.BatchSize])
			logits := nn.Forward(ctx, model, x)
			loss, grad := SoftmaxCrossEntropy(logits, y)
			lossSum += float64(loss * float64(len(y)))
			correct += correctCount(logits, y)
			seen += len(y)
			model.Backward(grad)
			if cfg.ClipNorm > 0 {
				clipGradients(model, cfg.ClipNorm)
			}
			opt.Step(model)
		}
		res.Epochs = epoch + 1
		res.FinalLoss = lossSum / float64(seen)
		res.TrainAcc = float64(correct) / float64(seen)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %2d  loss %.4f  train-acc %.3f\n",
				epoch+1, res.FinalLoss, res.TrainAcc)
		}
		if cfg.StopAtTrainAcc > 0 && res.TrainAcc >= cfg.StopAtTrainAcc {
			break
		}
	}
	res.ValAcc = Evaluate(model, ds.ValX, ds.ValY, cfg.BatchSize, nil)
	return res
}

// Evaluate returns top-1 accuracy of model over (x, y) in evaluation mode,
// optionally with hooks (format emulation) active.
func Evaluate(model nn.Module, x *tensor.Tensor, y []int, batch int, hooks *nn.HookSet) float64 {
	ctx := nn.NewContext(hooks)
	n := x.Dim(0)
	correct := 0
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		logits := nn.Forward(ctx, model, x.Slice(lo, hi))
		correct += correctCount(logits, y[lo:hi])
	}
	return float64(correct) / float64(n)
}

// clipGradients rescales all gradients so their global L2 norm is at most
// maxNorm. Non-finite gradients (possible under fault-injected training)
// zero the whole step rather than poisoning the weights.
func clipGradients(m nn.Module, maxNorm float64) {
	var sq float64
	for _, p := range m.Params() {
		if p.Frozen {
			continue
		}
		for _, g := range p.Grad.Data() {
			sq += float64(float64(g) * float64(g))
		}
	}
	norm := math.Sqrt(sq)
	switch {
	case math.IsNaN(norm) || math.IsInf(norm, 0):
		for _, p := range m.Params() {
			if !p.Frozen {
				p.ZeroGrad()
			}
		}
	case norm > maxNorm:
		scale := float32(maxNorm / norm)
		for _, p := range m.Params() {
			if p.Frozen {
				continue
			}
			p.Grad.ScaleInPlace(scale)
		}
	}
}

func correctCount(logits *tensor.Tensor, labels []int) int {
	pred := logits.ArgMaxRows()
	c := 0
	for i, p := range pred {
		if p == labels[i] {
			c++
		}
	}
	return c
}
