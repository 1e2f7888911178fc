package nn

import (
	"testing"

	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// rangeNet nests containers inside the root, so top-level children own
// several layers each and their first visit indices are not their
// positions.
func rangeNet(r *rng.RNG) *Sequential {
	return NewSequential("net",
		NewLinear("in", 4, 6, r),
		NewResidual("res",
			NewSequential("res.body", NewLinear("res.fc1", 6, 6, r), NewReLU("res.relu")),
			nil, NewReLU("res.out")),
		NewSequential("mid", NewLinear("mid.fc", 6, 5, r), NewReLU("mid.relu")),
		NewLinear("head", 5, 3, r),
	)
}

// recordVisits returns hooks appending every post-forward visit to *got.
func recordVisits(got *[]LayerInfo) *HookSet {
	h := NewHookSet()
	h.PostForward(AllLayers(), func(info LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		*got = append(*got, info)
		return t
	})
	return h
}

// A pass split at any top-level child — prefix [0, k), then suffix [k, len)
// numbered from the prefix's visit count — reports the same LayerInfo
// indices as a full pass, and computes the same logits bit for bit.
func TestForwardRangeMatchesFullPass(t *testing.T) {
	r := rng.New(7)
	net := rangeNet(r)
	x := tensor.Randn(r, 1, 3, 4)
	var full []LayerInfo
	want := Forward(NewContext(recordVisits(&full)), net, x)

	for k := 1; k < len(net.Children()); k++ {
		var got []LayerInfo
		ctx := NewContext(recordVisits(&got))
		cut := ForwardRange(ctx, net, 0, k, 0, x)
		first := ctx.Visits()
		// A fresh context, as a suffix pass from a memoized cut runs.
		out := ForwardRange(NewContext(recordVisits(&got)), net, k, len(net.Children()), first, cut)
		if len(got) != len(full) {
			t.Fatalf("cut %d: %d visits, want %d", k, len(got), len(full))
		}
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("cut %d: visit %d is %v, want %v", k, i, got[i], full[i])
			}
		}
		for i, v := range want.Data() {
			if out.Data()[i] != v {
				t.Fatalf("cut %d: logit %d = %v, want %v", k, i, out.Data()[i], v)
			}
		}
	}
}

// An accumulator fault on a linear that sees (N·T, D) token rows lands in
// its own sample's token row: GEMM row Sample·T + Elem/out, column
// Elem%out, exactly where the batch-1 pass of that sample puts it.
func TestLinearAccumFaultTokenRows(t *testing.T) {
	const n, tokens, in, out = 3, 4, 5, 6
	r := rng.New(9)
	net := NewSequential("net", NewLinear("fc", in, out, r))
	x := tensor.Randn(r, 1, n, tokens, in)
	const sample, elem = 2, 2*out + 4 // token 2, feature 4
	faulty := func(row int) *HookSet {
		h := NewHookSet()
		h.Accum(ByIndex(0), func(LayerInfo) AccumSpec {
			return AccumSpec{Faults: []AccumFault{{Sample: row, Elem: elem, Apply: func(v float32) float32 { return v + 1000 }}}}
		})
		return h
	}
	clean := Forward(NewContext(NewHookSet()), net, x).Data()
	got := Forward(NewContext(faulty(sample)), net, x).Data()
	at := (sample*tokens+elem/out)*out + elem%out
	for i := range clean {
		if (got[i] != clean[i]) != (i == at) {
			t.Fatalf("element %d: faulty %v clean %v; only element %d may differ", i, got[i], clean[i], at)
		}
	}
	alone := Forward(NewContext(faulty(0)), net, x.Slice(sample, sample+1)).Data()
	row := got[sample*tokens*out : (sample+1)*tokens*out]
	for i, v := range alone {
		if row[i] != v {
			t.Fatalf("batched row element %d = %v, batch-1 pass gives %v", i, row[i], v)
		}
	}
}
