package nn

import (
	"math"
	"testing"

	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

func TestGEMMDepth(t *testing.T) {
	r := rng.New(1)
	if d, ok := GEMMDepth(NewLinear("fc", 12, 5, r)); !ok || d != 12 {
		t.Fatalf("linear depth = %d,%v, want 12,true", d, ok)
	}
	if d, ok := GEMMDepth(NewConv2D("c", 3, 8, 3, 1, 1, r)); !ok || d != 3*3*3 {
		t.Fatalf("conv depth = %d,%v, want 27,true", d, ok)
	}
	if _, ok := GEMMDepth(NewReLU("relu")); ok {
		t.Fatal("ReLU reported a GEMM depth")
	}
}

// A Linear accumulator fault in layer coordinates (Sample, Elem) must land
// on exactly output[Sample][Elem] — every sibling element of every batch
// row stays bit-identical to the clean pass.
func TestLinearAccumFaultCoordinates(t *testing.T) {
	r := rng.New(4)
	net := NewSequential("net", NewLinear("fc", 6, 5, r))
	x := tensor.Randn(r, 1, 3, 6)
	clean := Forward(nil, net, x)

	const sample, elem = 2, 3
	hooks := NewHookSet()
	hooks.Accum(AllLayers(), func(info LayerInfo) AccumSpec {
		if info.Kind != KindLinear {
			return AccumSpec{}
		}
		return AccumSpec{Faults: []AccumFault{{
			Sample: sample, Elem: elem, Step: 2,
			Apply: func(float32) float32 { return 1e6 },
		}}}
	})
	got := Forward(NewContext(hooks), net, x)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			same := math.Float32bits(got.At(i, j)) == math.Float32bits(clean.At(i, j))
			if i == sample && j == elem {
				if same {
					t.Fatalf("faulted element (%d,%d) unchanged", i, j)
				}
				continue
			}
			if !same {
				t.Fatalf("clean element (%d,%d) corrupted: %v vs %v", i, j, got.At(i, j), clean.At(i, j))
			}
		}
	}
}

// A Conv2D accumulator fault's flat Elem index (the layer's batch-1 output
// coordinate space, as campaign fault draws use) must land on exactly that
// (channel, spatial) position of exactly that sample.
func TestConvAccumFaultCoordinates(t *testing.T) {
	r := rng.New(6)
	net := NewSequential("net", NewConv2D("c", 2, 4, 3, 1, 1, r))
	const batch, side = 2, 5
	x := tensor.Randn(r, 1, batch, 2, side, side)
	clean := Forward(nil, net, x)
	plane := side * side // stride 1, pad 1: spatial dims preserved

	const sample, elem = 1, 2*25 + 7 // channel 2, spatial position 7
	hooks := NewHookSet()
	hooks.Accum(AllLayers(), func(info LayerInfo) AccumSpec {
		return AccumSpec{Faults: []AccumFault{{
			Sample: sample, Elem: elem, Step: 0,
			Apply: func(float32) float32 { return 1e6 },
		}}}
	})
	got := Forward(NewContext(hooks), net, x)
	cd, gd := clean.Data(), got.Data()
	perSample := 4 * plane
	for i := range cd {
		same := math.Float32bits(gd[i]) == math.Float32bits(cd[i])
		if i == sample*perSample+elem {
			if same {
				t.Fatalf("faulted element %d unchanged", i)
			}
			continue
		}
		if !same {
			t.Fatalf("clean element %d corrupted: %v vs %v", i, gd[i], cd[i])
		}
	}
}

// rowQuant adapts a scalar rounding to the row-typed AccumSpec.Quant.
func rowQuant(q func(float32) float32) tensor.RoundFunc {
	return func(row []float32) {
		for i, v := range row {
			row[i] = q(v)
		}
	}
}

// Accum specs from multiple entries merge: the first non-nil Quant wins
// and fault lists concatenate — the emulation-then-injection layering the
// campaign engine relies on.
func TestAccumSpecMerge(t *testing.T) {
	r := rng.New(8)
	net := NewSequential("net", NewLinear("fc", 4, 3, r))
	x := tensor.Randn(r, 1, 1, 4)

	quant := func(v float32) float32 {
		return math.Float32frombits(math.Float32bits(v) &^ 0xFFFF)
	}
	quantOnly := NewHookSet()
	quantOnly.Accum(AllLayers(), func(LayerInfo) AccumSpec { return AccumSpec{Quant: rowQuant(quant)} })
	wantQuant := Forward(NewContext(quantOnly), net, x)

	merged := NewHookSet()
	merged.Accum(AllLayers(), func(LayerInfo) AccumSpec { return AccumSpec{Quant: rowQuant(quant)} })
	merged.Accum(AllLayers(), func(LayerInfo) AccumSpec {
		return AccumSpec{Faults: []AccumFault{{
			Sample: 0, Elem: 1, Step: 1,
			Apply: func(v float32) float32 { return v + 64 },
		}}}
	})
	got := Forward(NewContext(merged), net, x)
	for j := 0; j < 3; j++ {
		same := math.Float32bits(got.At(0, j)) == math.Float32bits(wantQuant.At(0, j))
		if j == 1 && same {
			t.Fatal("merged fault did not fire on the quantized reduction")
		}
		if j != 1 && !same {
			t.Fatalf("merged spec changed quant-only element %d", j)
		}
	}
}

// With a quantizing accumulator the conv's bias add is one more
// accumulation step: every output element is the rounded GEMM partial sum
// plus its channel's bias, rounded again — and the rounding after the bias
// add must be observable on this input.
func TestConvQuantizedBiasAdd(t *testing.T) {
	quant := func(v float32) float32 {
		return math.Float32frombits(math.Float32bits(v) &^ 0x3FFF)
	}
	r := rng.New(12)
	conv := NewConv2D("c", 2, 3, 3, 1, 1, r)
	for i := range conv.Bias().Value.Data() {
		conv.Bias().Value.Data()[i] = float32(i) - 0.3
	}
	const batch, side = 2, 4
	x := tensor.Randn(r, 1, batch, 2, side, side)
	hooks := NewHookSet()
	hooks.Accum(AllLayers(), func(LayerInfo) AccumSpec { return AccumSpec{Quant: rowQuant(quant)} })
	got := Forward(NewContext(hooks), NewSequential("net", conv), x)

	plane := side * side
	col := tensor.Im2Col(x, 3, 3, 1, 1)
	pre := conv.Weight().Value.Reshape(3, -1).MatMulBias(col, nil, tensor.Epilogue{Accum: &tensor.AccumHook{Quant: rowQuant(quant)}})
	rounded := false
	for ni := 0; ni < batch; ni++ {
		for oc := 0; oc < 3; oc++ {
			bv := conv.Bias().Value.Data()[oc]
			for s := 0; s < plane; s++ {
				sum := pre.Data()[oc*batch*plane+ni*plane+s] + bv
				want := quant(sum)
				rounded = rounded || want != sum
				if g := got.Data()[(ni*3+oc)*plane+s]; math.Float32bits(g) != math.Float32bits(want) {
					t.Fatalf("sample %d channel %d position %d: %v, want quantized bias add %v", ni, oc, s, g, want)
				}
			}
		}
	}
	if !rounded {
		t.Fatal("no bias add needed rounding; the test cannot see the bias-add step")
	}
}
