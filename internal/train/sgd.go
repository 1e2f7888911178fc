package train

import (
	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and decoupled
// weight decay. Frozen parameters (BatchNorm running statistics) are left
// untouched.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32

	velocity map[*nn.Param]*tensor.Tensor
}

// NewSGD returns an optimizer with the given hyperparameters.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{
		LR:          lr,
		Momentum:    momentum,
		WeightDecay: weightDecay,
		velocity:    make(map[*nn.Param]*tensor.Tensor),
	}
}

// Step applies one update to every non-frozen parameter of m and clears the
// gradients.
func (s *SGD) Step(m nn.Module) {
	for _, p := range m.Params() {
		if p.Frozen {
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.Value.Shape()...)
			s.velocity[p] = v
		}
		vd, gd, wd := v.Data(), p.Grad.Data(), p.Value.Data()
		for i := range wd {
			g := gd[i] + float32(s.WeightDecay*wd[i])
			vd[i] = float32(s.Momentum*vd[i]) + g
			wd[i] -= float32(s.LR * vd[i])
		}
		p.ZeroGrad()
	}
}
