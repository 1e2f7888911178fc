// Package models builds the experiment networks: width-reduced residual
// CNNs standing in for ResNet18/ResNet50 and patch-embedding transformers
// standing in for DeiT-tiny/DeiT-base (see the substitution table in
// DESIGN.md §1). All models share the 3×16×16 input geometry of the
// synthetic dataset and are constructed deterministically from a seed, or
// with zero parameters when their values are about to be loaded.
package models

import (
	"fmt"
	"sort"

	"goldeneye/internal/nn"
	"goldeneye/internal/rng"
)

// Input geometry shared by every model and the dataset.
const (
	InChannels = 3
	InHeight   = 16
	InWidth    = 16
)

// Builder constructs a model for the given class count, drawing its random
// initialization from r. A nil r leaves every parameter zero.
type Builder func(classes int, r *rng.RNG) nn.Module

// registry maps model names to builders. Names follow the paper's
// CNN/transformer pairing: resnet_s/_m ↔ ResNet18/50, vit_tiny/_small ↔
// DeiT-tiny/-base.
var registry = map[string]Builder{
	"resnet_s":  ResNetS,
	"resnet_m":  ResNetM,
	"vit_tiny":  ViTTiny,
	"vit_small": ViTSmall,
	"mlp":       MLP,
}

// Names returns the registered model names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build constructs a registered model by name, randomly initialized from
// seed: the starting point of training.
func Build(name string, classes int, seed uint64) (nn.Module, error) {
	return build(name, classes, rng.New(seed))
}

// Skeleton constructs a registered model by name with every parameter
// zero: the names and shapes a saved state is loaded into, without drawing
// the random initialization the load would overwrite.
func Skeleton(name string, classes int) (nn.Module, error) {
	return build(name, classes, nil)
}

func build(name string, classes int, r *rng.RNG) (nn.Module, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return b(classes, r), nil
}

// convBN returns conv → batchnorm as a sub-sequence.
func convBN(name string, in, out, k, stride, pad int, r *rng.RNG) []nn.Module {
	return []nn.Module{
		nn.NewConv2D(name+".conv", in, out, k, stride, pad, r),
		nn.NewBatchNorm2D(name+".bn", out),
	}
}

// basicBlock returns a two-conv residual block; when stride > 1 or channels
// change, the skip path gets a 1×1 strided projection.
func basicBlock(name string, in, out, stride int, r *rng.RNG) nn.Module {
	body := nn.NewSequential(name+".body",
		append(append(
			convBN(name+".a", in, out, 3, stride, 1, r),
			nn.NewReLU(name+".relu1")),
			convBN(name+".b", out, out, 3, 1, 1, r)...)...,
	)
	var proj nn.Module
	if stride != 1 || in != out {
		proj = nn.NewSequential(name+".down",
			convBN(name+".down", in, out, 1, stride, 0, r)...)
	}
	return nn.NewResidual(name, body, proj, nn.NewReLU(name+".relu2"))
}

// resnet builds a 3-stage residual CNN with the given per-stage channel
// widths and blocks per stage.
func resnet(name string, channels [3]int, blocks int, classes int, r *rng.RNG) nn.Module {
	mods := convBN(name+".stem", InChannels, channels[0], 3, 1, 1, r)
	mods = append(mods, nn.NewReLU(name+".stem.relu"))
	in := channels[0]
	for stage, ch := range channels {
		for b := 0; b < blocks; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			mods = append(mods, basicBlock(fmt.Sprintf("%s.s%db%d", name, stage, b), in, ch, stride, r))
			in = ch
		}
	}
	mods = append(mods,
		nn.NewGlobalAvgPool(name+".gap"),
		nn.NewLinear(name+".fc", in, classes, r),
	)
	return nn.NewSequential(name, mods...)
}

// ResNetS is the ResNet18 stand-in: one basic block per stage, channel
// widths 8/16/32.
func ResNetS(classes int, r *rng.RNG) nn.Module {
	return resnet("resnet_s", [3]int{8, 16, 32}, 1, classes, r)
}

// ResNetM is the ResNet50 stand-in: two basic blocks per stage, channel
// widths 12/24/48.
func ResNetM(classes int, r *rng.RNG) nn.Module {
	return resnet("resnet_m", [3]int{12, 24, 48}, 2, classes, r)
}

// vit builds a patch-embedding transformer classifier.
func vit(name string, dim, heads, depth, mlpRatio int, classes int, r *rng.RNG) nn.Module {
	patch := 4
	tokens := (InHeight / patch) * (InWidth / patch)
	mods := []nn.Module{
		nn.NewPatchEmbed(name+".patch", InChannels, dim, patch, r),
		nn.NewTokenPrep(name+".prep", tokens, dim, r),
	}
	for i := 0; i < depth; i++ {
		mods = append(mods, nn.NewTransformerBlock(fmt.Sprintf("%s.blk%d", name, i), dim, heads, mlpRatio, r))
	}
	mods = append(mods,
		nn.NewLayerNorm(name+".ln", dim),
		nn.NewClsSelect(name+".cls"),
		nn.NewLinear(name+".head", dim, classes, r),
	)
	return nn.NewSequential(name, mods...)
}

// ViTTiny is the DeiT-tiny stand-in: dim 32, 2 heads, depth 2.
func ViTTiny(classes int, r *rng.RNG) nn.Module {
	return vit("vit_tiny", 32, 2, 2, 2, classes, r)
}

// ViTSmall is the DeiT-base stand-in: dim 48, 3 heads, depth 3.
func ViTSmall(classes int, r *rng.RNG) nn.Module {
	return vit("vit_small", 48, 3, 3, 2, classes, r)
}

// MLP is a plain two-hidden-layer perceptron baseline.
func MLP(classes int, r *rng.RNG) nn.Module {
	in := InChannels * InHeight * InWidth
	return nn.NewSequential("mlp",
		nn.NewFlatten("mlp.flat"),
		nn.NewLinear("mlp.fc1", in, 64, r),
		nn.NewReLU("mlp.relu1"),
		nn.NewLinear("mlp.fc2", 64, 32, r),
		nn.NewReLU("mlp.relu2"),
		nn.NewLinear("mlp.fc3", 32, classes, r),
	)
}
