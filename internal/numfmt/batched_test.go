package numfmt

import (
	"math"
	"runtime"
	"testing"

	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// batchedFormats covers every family: metadata-free (FP, FxP, LNS, posit)
// and metadata-bearing (INT scale, BFP shared exponents, AFP bias, LUT
// scale).
func batchedFormats() []Format {
	return []Format{
		FP8E4M3(true), FxP16(), LNS8(), Posit8(),
		INT8(), BFPe5m5(), AFPe5m2(), NewLUT(4),
	}
}

// batchedInput builds a batch whose rows have deliberately different
// magnitudes, so per-tensor metadata (scale, bias, shared exponents) would
// differ from per-row metadata if the batched path leaked across rows.
func batchedInput(rows, cols int) *tensor.Tensor {
	r := rng.New(7)
	t := tensor.Randn(r, 1, rows, cols)
	data := t.Data()
	for i := 0; i < rows; i++ {
		scale := float32(int32(1) << uint(2*i)) // 1, 4, 16, …
		for j := 0; j < cols; j++ {
			data[i*cols+j] *= scale
		}
	}
	return t
}

// tokenInput builds an (N·T, D) activation — T token rows per sample, the
// layout of a transformer's linears — whose samples have deliberately
// different magnitudes, as batchedInput's rows do.
func tokenInput(samples, tokens, d int) *tensor.Tensor {
	return batchedInput(samples, tokens*d).Reshape(samples*tokens, d)
}

// groupedCase is an n-sample activation: one leading row per sample, or T
// token rows per sample, whose metadata must then cover all T rows.
type groupedCase struct {
	name string
	in   *tensor.Tensor
	n    int
}

func groupedCases() []groupedCase {
	return []groupedCase{
		{"rows", batchedInput(4, 17), 4},
		{"tokens", tokenInput(3, 4, 5), 3},
	}
}

// sample returns sample s of c as its own tensor: the reference every
// grouped entry point must match.
func (c groupedCase) sample(s int) *tensor.Tensor {
	g := c.in.Dim(0) / c.n
	return c.in.Slice(s*g, (s+1)*g)
}

func TestQuantizeBatchedMatchesPerRow(t *testing.T) {
	for _, c := range groupedCases() {
		span := c.in.Len() / c.n
		for _, f := range batchedFormats() {
			enc := QuantizeBatched(f, c.in, c.n)
			if len(enc.RowMeta) != c.n {
				t.Fatalf("%s/%s: batched encoding has %d metadata sets, want %d", c.name, f.Name(), len(enc.RowMeta), c.n)
			}
			for r := 0; r < c.n; r++ {
				ref := f.Quantize(c.sample(r))
				for j := 0; j < span; j++ {
					if enc.Codes[r*span+j] != ref.Codes[j] {
						t.Fatalf("%s/%s: sample %d code %d = %#x, batch-1 %#x",
							c.name, f.Name(), r, j, enc.Codes[r*span+j], ref.Codes[j])
					}
				}
				got, want := enc.RowMeta[r], ref.Meta
				if got.Kind != want.Kind || got.Scale != want.Scale ||
					got.BlockSize != want.BlockSize || got.ExpBias != want.ExpBias ||
					len(got.SharedExp) != len(want.SharedExp) {
					t.Fatalf("%s/%s: sample %d metadata %+v, batch-1 %+v", c.name, f.Name(), r, got, want)
				}
				for b := range want.SharedExp {
					if got.SharedExp[b] != want.SharedExp[b] {
						t.Fatalf("%s/%s: sample %d shared exp %d differs", c.name, f.Name(), r, b)
					}
				}
			}
		}
	}
}

func TestDequantizeBatchedRoundTrip(t *testing.T) {
	in := batchedInput(3, 11)
	for _, f := range batchedFormats() {
		got := DequantizeBatched(f, QuantizeBatched(f, in, 3)).Data()
		for r := 0; r < 3; r++ {
			want := f.Dequantize(f.Quantize(in.Slice(r, r+1))).Data()
			for j, w := range want {
				if got[r*11+j] != w {
					t.Fatalf("%s: row %d elem %d = %v, batch-1 %v", f.Name(), r, j, got[r*11+j], w)
				}
			}
		}
	}
}

// EmulateBatched and the fused EmulateEpilogue must both equal per-sample
// Emulate, and refuse a sample count that does not divide the leading
// rows rather than mis-group samples.
func TestEmulateBatchedMatchesPerRow(t *testing.T) {
	for _, c := range groupedCases() {
		span := c.in.Len() / c.n
		for _, f := range batchedFormats() {
			got := EmulateBatched(f, c.in, c.n).Data()
			fused := c.in.Clone().Data()
			ep := EmulateEpilogue(f, c.n)
			if ep.Empty() {
				t.Fatalf("%s: no fused epilogue", f.Name())
			}
			if ep.Tile != nil {
				ep.Tile(fused)
			}
			ep.Apply(fused)
			for r := 0; r < c.n; r++ {
				want := f.Emulate(c.sample(r)).Data()
				for j, w := range want {
					if got[r*span+j] != w || fused[r*span+j] != w {
						t.Fatalf("%s/%s: sample %d elem %d = %v (epilogue %v), batch-1 %v",
							c.name, f.Name(), r, j, got[r*span+j], fused[r*span+j], w)
					}
				}
			}
		}
	}
	in := tokenInput(3, 4, 5) // 12 leading rows, 60 elements
	for name, call := range map[string]func(){
		"EmulateBatched":  func() { EmulateBatched(INT8(), in, 5) },
		"QuantizeBatched": func() { QuantizeBatched(INT8(), in, 5) },
		"EmulateEpilogue": func() { EmulateEpilogue(INT8(), 7).Apply(in.Clone().Data()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a sample count that does not divide its input", name)
				}
			}()
			call()
		}()
	}
}

// EmulateBatched must give every family's samples their batch-1 bits on
// the parallel path that real campaign activations hit: the fused kernels'
// share of tensor.ParallelRows.
func TestEmulateBatchedParallelPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const rows = 8
	in := batchedInput(rows, tensor.ParallelMinElems/rows+3)
	cols := in.Len() / rows
	for _, f := range batchedFormats() {
		got := EmulateBatched(f, in, rows).Data()
		for r := 0; r < rows; r++ {
			want := f.Emulate(in.Slice(r, r+1)).Data()
			for j, w := range want {
				if g := got[r*cols+j]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%s: row %d elem %d = %v, batch-1 %v", f.Name(), r, j, g, w)
				}
			}
		}
	}
}

func TestEncodingCloneCopiesRowMeta(t *testing.T) {
	enc := QuantizeBatched(BFPe5m5(), batchedInput(2, 9), 2)
	c := enc.Clone()
	if len(c.RowMeta) != 2 {
		t.Fatalf("clone lost batch metadata: %+v", c)
	}
	c.RowMeta[0].SharedExp[0] ^= 0xff
	if enc.RowMeta[0].SharedExp[0] == c.RowMeta[0].SharedExp[0] {
		t.Fatal("clone shares SharedExp storage with the original")
	}
}

// Generic keeps every method of its format but Emulate, which takes the
// code-space round trip: same bits as the fused kernel, counted as a
// generic kernel, and no fused epilogue to hand a layer.
func TestGenericTakesCodePath(t *testing.T) {
	in := batchedInput(4, 33)
	for _, f := range batchedFormats() {
		g := Generic(f)
		if g.Name() != f.Name() || g.BitWidth() != f.BitWidth() {
			t.Fatalf("%s: Generic changed the format's identity to %s/%d", f.Name(), g.Name(), g.BitWidth())
		}
		before := ReadOpCounts()
		got := g.Emulate(in).Data()
		after := ReadOpCounts()
		if after.GenericKernels != before.GenericKernels+1 || after.FusedKernels != before.FusedKernels {
			t.Fatalf("%s: Generic ran %d generic and %d fused kernels, want 1 and 0", f.Name(),
				after.GenericKernels-before.GenericKernels, after.FusedKernels-before.FusedKernels)
		}
		for i, w := range f.Emulate(in).Data() {
			if math.Float32bits(got[i]) != math.Float32bits(w) {
				t.Fatalf("%s: element %d = %v, Emulate %v", f.Name(), i, got[i], w)
			}
		}
		if !EmulateEpilogue(g, 1).Empty() {
			t.Fatalf("%s: Generic handed out a fused epilogue", f.Name())
		}
	}
}
