package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"goldeneye/internal/nn"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

func sampleInput(batch int) *tensor.Tensor {
	return tensor.Randn(rng.New(1), 1, batch, InChannels, InHeight, InWidth)
}

func TestBuildAllModels(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := Build(name, 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			out := nn.Forward(nil, m, sampleInput(2))
			if out.Rank() != 2 || out.Dim(0) != 2 || out.Dim(1) != 10 {
				t.Fatalf("%s output shape %v, want (2, 10)", name, out.Shape())
			}
			if out.CountNonFinite() != 0 {
				t.Fatalf("%s produced non-finite logits at init", name)
			}
		})
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := Build("alexnet", 10, 1); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, _ := Build("resnet_s", 10, 7)
	b, _ := Build("resnet_s", 10, 7)
	x := sampleInput(1)
	if !nn.Forward(nil, a, x).AllClose(nn.Forward(nil, b, x), 0) {
		t.Fatal("same seed must build identical models")
	}
	c, _ := Build("resnet_s", 10, 8)
	if nn.Forward(nil, c, x).AllClose(nn.Forward(nil, a, x), 1e-9) {
		t.Fatal("different seeds should differ")
	}
}

func TestModelsHaveUniqueParamNames(t *testing.T) {
	for _, name := range Names() {
		m, _ := Build(name, 10, 1)
		seen := make(map[string]bool)
		for _, p := range m.Params() {
			if seen[p.Name] {
				t.Fatalf("%s: duplicate parameter name %q", name, p.Name)
			}
			seen[p.Name] = true
		}
	}
}

func TestModelsAreTrainable(t *testing.T) {
	// One backward step must not panic and must produce gradients on every
	// trainable parameter for every architecture.
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, _ := Build(name, 10, 1)
			ctx := &nn.Context{Training: true}
			out := nn.Forward(ctx, m, sampleInput(4))
			grad := tensor.Full(0.1, out.Shape()...)
			m.Backward(grad)
			zeroGrads := 0
			trainable := 0
			for _, p := range m.Params() {
				if p.Frozen {
					continue
				}
				trainable++
				if p.Grad.AbsMax() == 0 {
					zeroGrads++
				}
			}
			// A few biases can legitimately be zero-gradient, but most
			// parameters must receive signal.
			if zeroGrads > trainable/4 {
				t.Fatalf("%s: %d of %d trainable params got no gradient", name, zeroGrads, trainable)
			}
		})
	}
}

func TestResNetDepthOrdering(t *testing.T) {
	small, _ := Build("resnet_s", 10, 1)
	medium, _ := Build("resnet_m", 10, 1)
	if nn.ParamCount(medium) <= nn.ParamCount(small) {
		t.Fatal("resnet_m must be larger than resnet_s")
	}
	tiny, _ := Build("vit_tiny", 10, 1)
	smallVit, _ := Build("vit_small", 10, 1)
	if nn.ParamCount(smallVit) <= nn.ParamCount(tiny) {
		t.Fatal("vit_small must be larger than vit_tiny")
	}
}

func TestModelsHaveConvAndLinearLayers(t *testing.T) {
	// The paper's default hooks target CONV and LINEAR; every model must
	// expose at least one injectable layer.
	for _, name := range Names() {
		m, _ := Build(name, 10, 1)
		visits := nn.Trace(m, sampleInput(1))
		convLinear := 0
		for _, v := range visits {
			if v.Kind == nn.KindConv || v.Kind == nn.KindLinear {
				convLinear++
			}
		}
		if convLinear == 0 {
			t.Fatalf("%s has no hookable CONV/LINEAR layers", name)
		}
	}
}

// paramsDigest hashes every parameter's name and float32 bits, in order.
func paramsDigest(m nn.Module) string {
	h := sha256.New()
	var buf [4]byte
	for _, p := range m.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The training path's random initialization is what every zoo model was
// trained from: Build(name, 10, 1) must keep drawing the same values.
func TestBuildInitPinned(t *testing.T) {
	want := map[string]string{
		"mlp":       "0b4ea05c0bb4589edb8216efde9c255be9917a4bbc78fe220553ad94776b85b2",
		"resnet_m":  "b874d0545f616c9ebc6fb7f15c35834db16f4375c63626ad60ef668106d75b57",
		"resnet_s":  "c5fcfe4008f24ab37bc84e960c90d16e90b17b7b238b2af6fba2f8a7c758c488",
		"vit_small": "574eb40b1187ef80ef2eb5322f47c99f1103491d6eb9f1938ff74688d74358d4",
		"vit_tiny":  "1e766aa9ec63869c7c76cd396e4b0a7d2ab12a900cbcd497cecdd59244aa59ac",
	}
	for _, name := range Names() {
		m, err := Build(name, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := paramsDigest(m); got != want[name] {
			t.Errorf("%s: init digest %s, want %s", name, got, want[name])
		}
	}
}

// A skeleton has the built model's parameter names and shapes, and draws
// nothing: its conv, linear and token weights are zero.
func TestSkeletonMatchesBuild(t *testing.T) {
	for _, name := range Names() {
		built, _ := Build(name, 10, 1)
		skel, err := Skeleton(name, 10)
		if err != nil {
			t.Fatal(err)
		}
		bp, sp := built.Params(), skel.Params()
		if len(bp) != len(sp) {
			t.Fatalf("%s: skeleton has %d params, build %d", name, len(sp), len(bp))
		}
		for i := range bp {
			if bp[i].Name != sp[i].Name || !slices.Equal(bp[i].Value.Shape(), sp[i].Value.Shape()) {
				t.Fatalf("%s: param %d is %s%v, build has %s%v", name, i,
					sp[i].Name, sp[i].Value.Shape(), bp[i].Name, bp[i].Value.Shape())
			}
		}
	}
	if _, err := Skeleton("alexnet", 10); err == nil {
		t.Fatal("expected error for unknown model")
	}
	skel, _ := Skeleton("mlp", 10)
	if w := skel.Params()[0].Value; w.AbsMax() != 0 {
		t.Errorf("skeleton weight %s holds %v, want zeros", skel.Params()[0].Name, w.AbsMax())
	}
}
