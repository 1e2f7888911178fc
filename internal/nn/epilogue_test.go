package nn

import (
	"math"
	"testing"

	"goldeneye/internal/numfmt"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// epilogueTestModel is a conv→relu→linear stack with enough tensor volume
// to exercise the parallel matmul path.
func epilogueTestModel(t *testing.T) (Module, *tensor.Tensor) {
	t.Helper()
	r := rng.New(11)
	m := NewSequential("m",
		NewConv2D("conv", 3, 8, 3, 1, 1, r),
		NewReLU("relu"),
		NewLinear("fc", 8*8*8, 10, r),
	)
	x := tensor.Randn(r, 1, 4, 3, 8, 8)
	return m, x
}

func assertBitsEqual(t *testing.T, got, want *tensor.Tensor, label string) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: length %d vs %d", label, len(gd), len(wd))
	}
	for i := range gd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", label, i, gd[i], wd[i])
		}
	}
}

// A fused epilogue must produce bit-identical forward outputs to the
// post hook it replaces, for element-local (FP → Tile) and metadata-
// bearing (BFP, AFP, INT → Whole) forms, with one sample (tensor-wide
// metadata) or per-sample metadata over the batch's 4 samples.
func TestEpilogueForwardBitIdentical(t *testing.T) {
	formats := []numfmt.Format{
		numfmt.FP16(true),
		numfmt.BFPe5m5(),
		numfmt.AFPe5m2(),
		numfmt.INT8(),
	}
	for _, f := range formats {
		for _, n := range []int{1, 4} {
			m, x := epilogueTestModel(t)
			emulate := func(_ LayerInfo, a *tensor.Tensor) *tensor.Tensor { return numfmt.EmulateBatched(f, a, n) }

			hooked := NewHookSet()
			hooked.PostForward(DefaultLayers(), emulate)
			want := Forward(NewContext(hooked), m, x)

			fused := NewHookSet()
			ep := numfmt.EmulateEpilogue(f, n)
			fused.PostForwardEpilogueBy(DefaultLayers(), emulate, func(LayerInfo) tensor.Epilogue { return ep })
			got := Forward(NewContext(fused), m, x)

			assertBitsEqual(t, got, want, f.Name())
		}
	}
}

// When the epilogue is fused into the layer, the hook's fallback fn must
// not run, and later post hooks must still see the transformed output in
// registration order.
func TestEpilogueSkipsFallbackPreservesOrder(t *testing.T) {
	m, x := epilogueTestModel(t)
	f := numfmt.BFPe5m5()

	fnCalls := 0
	sawEmulated := true
	hooks := NewHookSet()
	hooks.PostForwardEpilogueBy(DefaultLayers(), func(_ LayerInfo, a *tensor.Tensor) *tensor.Tensor {
		fnCalls++
		return f.Emulate(a)
	}, func(LayerInfo) tensor.Epilogue { return numfmt.EmulateEpilogue(f, 1) })
	hooks.PostForward(DefaultLayers(), func(_ LayerInfo, a *tensor.Tensor) *tensor.Tensor {
		// Downstream hooks (injection, clamping) must observe already-
		// emulated values, exactly as with the unfused composition.
		if !a.AllClose(f.Emulate(a), 0) {
			sawEmulated = false
		}
		return a
	})
	Forward(NewContext(hooks), m, x)
	if fnCalls != 0 {
		t.Fatalf("fallback hook ran %d times despite fused epilogue", fnCalls)
	}
	if !sawEmulated {
		t.Fatal("downstream post hook saw unemulated values")
	}
}

// A layer that is NOT the first matching post hook's target must fall back
// to the hook path: fusing it would reorder the composition.
func TestEpilogueOnlyFirstMatchingHookFuses(t *testing.T) {
	m, x := epilogueTestModel(t)
	f := numfmt.BFPe5m5()

	order := []string{}
	hooks := NewHookSet()
	hooks.PostForward(DefaultLayers(), func(_ LayerInfo, a *tensor.Tensor) *tensor.Tensor {
		order = append(order, "first")
		return a
	})
	hooks.PostForwardEpilogueBy(DefaultLayers(), func(_ LayerInfo, a *tensor.Tensor) *tensor.Tensor {
		order = append(order, "second")
		return f.Emulate(a)
	}, func(LayerInfo) tensor.Epilogue { return numfmt.EmulateEpilogue(f, 1) })
	Forward(NewContext(hooks), m, x)
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] != "first" || order[i+1] != "second" {
			t.Fatalf("hook order broken: %v", order)
		}
	}
	if len(order) == 0 || len(order)%2 != 0 {
		t.Fatalf("expected paired hook calls, got %v", order)
	}
}

func TestTakeEpilogueNilAndUnstaged(t *testing.T) {
	var nilCtx *Context
	if _, ok := nilCtx.TakeEpilogue(); ok {
		t.Fatal("nil context handed out an epilogue")
	}
	if _, ok := NewContext(nil).TakeEpilogue(); ok {
		t.Fatal("context without hooks handed out an epilogue")
	}
}
