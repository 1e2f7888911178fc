package inject

import (
	"context"
	"math"

	"goldeneye/internal/nn"
	"goldeneye/internal/tensor"
)

// RangeProfile holds per-layer activation bounds observed on clean data.
// It implements the paper's toggleable range detector (§V-B, modeled on
// Ranger): during faulty inference, activations are clamped to the profiled
// range, bounding the blast radius of a bit flip.
type RangeProfile struct {
	lo map[int]float32
	hi map[int]float32
}

// ProfileRanges runs clean forward passes over x (batched by batch) and
// records the min/max output of every layer. When extra is non-nil, its
// hooks (e.g. format emulation) run before the recorder, so the profiled
// bounds reflect the emulated network. ctx is checked between batches;
// cancellation returns the (partial) profile early — callers that care
// must check ctx themselves after the call.
func ProfileRanges(ctx context.Context, m nn.Module, x *tensor.Tensor, batch int, extra *nn.HookSet) *RangeProfile {
	p := &RangeProfile{
		lo: make(map[int]float32),
		hi: make(map[int]float32),
	}
	hooks := nn.NewHookSet()
	hooks.Merge(extra)
	hooks.PostForward(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		lo, hi := t.MinMax()
		if cur, ok := p.lo[info.Index]; !ok || lo < cur {
			p.lo[info.Index] = lo
		}
		if cur, ok := p.hi[info.Index]; !ok || hi > cur {
			p.hi[info.Index] = hi
		}
		return t
	})
	fctx := nn.NewContext(hooks)
	n := x.Dim(0)
	for lo := 0; lo < n; lo += batch {
		if ctx.Err() != nil {
			return p
		}
		hi := lo + batch
		if hi > n {
			hi = n
		}
		nn.Forward(fctx, m, x.Slice(lo, hi))
	}
	return p
}

// Bounds returns the observed range of layer i (false if never seen).
func (p *RangeProfile) Bounds(i int) (lo, hi float32, ok bool) {
	lo, ok1 := p.lo[i]
	hi, ok2 := p.hi[i]
	return lo, hi, ok1 && ok2
}

// ClampHook returns a post-forward hook that clamps every layer's output to
// its profiled range and replaces non-finite values with the nearest bound.
// Register it AFTER injection hooks so faults are detected, not prevented.
// An output already within range is returned as is, without allocating;
// only a tensor with something to clamp is copied.
func (p *RangeProfile) ClampHook() nn.HookFunc {
	return func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		lo, hi, ok := p.Bounds(info.Index)
		if !ok || inRange(t.Data(), lo, hi) {
			return t
		}
		out := t.Apply(func(v float32) float32 {
			f := float64(v)
			if math.IsNaN(f) {
				return hi
			}
			if v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		})
		return out
	}
}

// inRange reports whether every value of data lies in [lo, hi]; NaN never
// does.
func inRange(data []float32, lo, hi float32) bool {
	for _, v := range data {
		if !(v >= lo && v <= hi) {
			return false
		}
	}
	return true
}
