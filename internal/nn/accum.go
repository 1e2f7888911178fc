package nn

import "goldeneye/internal/tensor"

// GEMMDepth returns the reduction depth of a layer's GEMM accumulator — the
// number of multiply-accumulate steps each output element sums before the
// bias add — and whether the module is GEMM-backed at all. Linear reduces
// over its input features; Conv2D, lowered through im2col, reduces over
// C·KH·KW. Layers without a GEMM (normalization, activations, pooling)
// report ok=false: they have no accumulator to inject into, which campaign
// validation turns into a configuration error.
func GEMMDepth(m Module) (depth int, ok bool) {
	switch v := m.(type) {
	case *Linear:
		return v.w.Value.Dim(0), true
	case *Conv2D:
		w := v.w.Value
		return w.Dim(1) * w.Dim(2) * w.Dim(3), true
	}
	return 0, false
}

// linearAccumHook translates a layer-coordinate accumulator spec into the
// GEMM coordinates of Linear's x·W matmul over out output features, where
// each sample occupies rows consecutive GEMM rows (1 for per-sample inputs,
// T for token-level linears seeing (N·T, D)). A sample's batch-1 output is
// rows×out elements, so Elem addresses GEMM row Sample·rows + Elem/out and
// column Elem%out; at rows = 1 that is row Sample, column Elem.
func linearAccumHook(spec AccumSpec, out, rows int) *tensor.AccumHook {
	h := &tensor.AccumHook{Quant: spec.Quant}
	if len(spec.Faults) > 0 {
		h.Faults = make([]tensor.AccumFault, len(spec.Faults))
		for i, f := range spec.Faults {
			h.Faults[i] = tensor.AccumFault{Row: f.Sample*rows + f.Elem/out, Col: f.Elem % out, Step: f.Step, Apply: f.Apply}
		}
	}
	return h
}

// convAccumHook translates a layer-coordinate accumulator spec into the
// GEMM coordinates of Conv2D's im2col lowering, W(oc,K) @ col(K,n·plane):
// the output channel (Elem / plane at batch 1) is the GEMM row and the
// (sample, spatial position) pair is the GEMM column.
func convAccumHook(spec AccumSpec, plane int) *tensor.AccumHook {
	h := &tensor.AccumHook{Quant: spec.Quant}
	if len(spec.Faults) > 0 {
		h.Faults = make([]tensor.AccumFault, len(spec.Faults))
		for i, f := range spec.Faults {
			h.Faults[i] = tensor.AccumFault{
				Row:   f.Elem / plane,
				Col:   f.Sample*plane + f.Elem%plane,
				Step:  f.Step,
				Apply: f.Apply,
			}
		}
	}
	return h
}
