package inject

import (
	"testing"

	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

func batchedFixture(rows, cols int) *tensor.Tensor {
	t := tensor.Randn(rng.New(3), 1, rows, cols)
	data := t.Data()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			data[i*cols+j] *= float32(1 + 3*i) // distinct per-row magnitudes
		}
	}
	return t
}

// A value fault addressed at (row, element) must corrupt exactly that row's
// code and leave every batchmate bit-identical.
func TestFlipInBatchedEncodingRowIsolation(t *testing.T) {
	in := batchedFixture(3, 8)
	f := numfmt.INT8()
	enc := numfmt.QuantizeBatched(f, in, 3)
	before := append([]numfmt.Bits(nil), enc.Codes...)
	fault := Fault{Site: SiteValue, Row: 1, Element: 5, Bit: 2}
	if err := FlipInEncoding(enc, fault); err != nil {
		t.Fatal(err)
	}
	for i, c := range enc.Codes {
		want := before[i]
		if i == 1*8+5 {
			want = want.Flip(2)
		}
		if c != want {
			t.Fatalf("code %d = %#x, want %#x", i, c, want)
		}
	}

	// The faulted row must match a batch-1 injection of the same fault.
	ref := f.Quantize(in.Slice(1, 2))
	if err := FlipInEncoding(ref, Fault{Site: SiteValue, Element: 5, Bit: 2}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 8; j++ {
		if enc.Codes[8+j] != ref.Codes[j] {
			t.Fatalf("row 1 code %d = %#x, batch-1 %#x", j, enc.Codes[8+j], ref.Codes[j])
		}
	}
}

// A burst fault stays confined to its row: each batch row models an
// independent inference.
func TestFlipInBatchedEncodingBurstConfined(t *testing.T) {
	in := batchedFixture(2, 6)
	f := numfmt.FxP16()
	enc := numfmt.QuantizeBatched(f, in, 2)
	before := append([]numfmt.Bits(nil), enc.Codes...)
	if err := FlipInEncoding(enc, Fault{Site: SiteValue, Kind: KindBurst, Row: 1, Bit: 0}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 6; j++ {
		if enc.Codes[j] != before[j] {
			t.Fatalf("row 0 code %d corrupted by a row-1 burst", j)
		}
		if enc.Codes[6+j] != before[6+j].Flip(0) {
			t.Fatalf("row 1 code %d not burst-flipped", j)
		}
	}
}

// Metadata faults route to the addressed row's registers only.
func TestFlipInBatchedEncodingMetadataPerRow(t *testing.T) {
	in := batchedFixture(3, 8)
	f := numfmt.BFPe5m5()
	enc := numfmt.QuantizeBatched(f, in, 3)
	want0 := append([]uint8(nil), enc.RowMeta[0].SharedExp...)
	want2 := append([]uint8(nil), enc.RowMeta[2].SharedExp...)
	if err := FlipInEncoding(enc, Fault{Site: SiteMetadata, Row: 1, MetaIndex: 0, Bit: 1}); err != nil {
		t.Fatal(err)
	}
	for b := range want0 {
		if enc.RowMeta[0].SharedExp[b] != want0[b] || enc.RowMeta[2].SharedExp[b] != want2[b] {
			t.Fatal("metadata fault leaked into a batchmate's registers")
		}
	}
	ref := f.Quantize(in.Slice(1, 2))
	if err := FlipInEncoding(ref, Fault{Site: SiteMetadata, MetaIndex: 0, Bit: 1}); err != nil {
		t.Fatal(err)
	}
	if enc.RowMeta[1].SharedExp[0] != ref.Meta.SharedExp[0] {
		t.Fatalf("row 1 shared exponent %#x, batch-1 %#x", enc.RowMeta[1].SharedExp[0], ref.Meta.SharedExp[0])
	}
}

func TestFlipInBatchedEncodingRowOutOfRange(t *testing.T) {
	enc := numfmt.QuantizeBatched(numfmt.INT8(), batchedFixture(2, 4), 2)
	if err := FlipInEncoding(enc, Fault{Site: SiteValue, Row: 2, Element: 0, Bit: 0}); err == nil {
		t.Fatal("expected a row-range error")
	}
	if err := FlipInEncoding(enc, Fault{Site: SiteValue, Row: 0, Element: 4, Bit: 0}); err == nil {
		t.Fatal("expected an element-range error (per-row bounds)")
	}
}

// NeuronHook over N samples must reproduce its one-sample form sample by
// sample: injecting N distinct fault sets in one pass gives each sample
// exactly the tensor a batch-1 injection of its faults would — one leading
// row per sample, or T token rows per sample, whose value, burst and
// metadata faults then span all T rows.
func TestNeuronHookBatchedMatchesSerial(t *testing.T) {
	const samples, span = 3, 20
	inputs := map[string]*tensor.Tensor{
		"rows":   batchedFixture(samples, span),
		"tokens": batchedFixture(samples, span).Reshape(samples*4, span/4),
	}
	faults := [][]Fault{
		{{Site: SiteValue, Element: 13, Bit: 3}},
		{{Site: SiteMetadata, MetaIndex: 0, Bit: 2}, {Site: SiteValue, Kind: KindBurst, Bit: 1}},
		{{Site: SiteValue, Element: 17, Bit: 0}, {Site: SiteValue, Element: 2, Bit: 4}},
	}
	for name, in := range inputs {
		g := in.Dim(0) / samples
		for _, f := range []numfmt.Format{numfmt.INT8(), numfmt.BFPe5m5(), numfmt.AFPe5m2()} {
			got := NeuronHook(f, faults)(nn.LayerInfo{}, in)
			for s := 0; s < samples; s++ {
				want := NeuronHook(f, faults[s:s+1])(nn.LayerInfo{}, in.Slice(s*g, (s+1)*g))
				for j := 0; j < span; j++ {
					if got.Data()[s*span+j] != want.Data()[j] {
						t.Fatalf("%s/%s: sample %d elem %d = %v, batch-1 %v",
							name, f.Name(), s, j, got.Data()[s*span+j], want.Data()[j])
					}
				}
			}
		}
	}
}
