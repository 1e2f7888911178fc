package inject

import (
	"math"
	"testing"
	"testing/quick"

	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

func TestFlipInEncodingValue(t *testing.T) {
	f := numfmt.FP8E4M3(true)
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 4)
	enc := f.Quantize(x)
	fault := Fault{Site: SiteValue, Element: 2, Bit: 6} // high exponent bit
	if err := FlipInEncoding(enc, fault); err != nil {
		t.Fatal(err)
	}
	out := f.Dequantize(enc)
	if out.At(2) == 3 {
		t.Fatal("flip did not change the value")
	}
	// Other elements untouched.
	for _, i := range []int{0, 1, 3} {
		if out.At(i) != x.At(i) {
			t.Fatalf("element %d corrupted collaterally", i)
		}
	}
}

func TestFlipInEncodingValueOutOfRange(t *testing.T) {
	f := numfmt.FP8E4M3(true)
	enc := f.Quantize(tensor.FromSlice([]float32{1}, 1))
	if err := FlipInEncoding(enc, Fault{Site: SiteValue, Element: 5, Bit: 0}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestFlipMetadataScale(t *testing.T) {
	f := numfmt.INT8()
	x := tensor.FromSlice([]float32{-1, 0.5, 1}, 3)
	enc := f.Quantize(x)
	origScale := enc.Meta.Scale
	// Flip the float32 exponent LSB (bit 23): scale changes by ~2x.
	if err := FlipInEncoding(enc, Fault{Site: SiteMetadata, Bit: 23}); err != nil {
		t.Fatal(err)
	}
	if enc.Meta.Scale == origScale {
		t.Fatal("scale unchanged")
	}
	out := f.Dequantize(enc)
	// Every element rescales together (by 2×, the exponent LSB) — the
	// multi-value blast radius. Tolerance covers INT8 quantization error.
	for i := 0; i < 3; i++ {
		if x.At(i) == 0 {
			continue
		}
		got := float64(out.At(i) / x.At(i))
		if math.Abs(got-2) > 0.04 {
			t.Fatalf("element %d: rescale ratio %v, want ≈2", i, got)
		}
	}
}

func TestFlipMetadataSharedExponent(t *testing.T) {
	f := numfmt.BFPe5m5()
	x := tensor.FromSlice([]float32{0.5, -0.25, 1.0, 0.75}, 4)
	enc := f.Quantize(x)
	clean := f.Dequantize(enc)
	if err := FlipInEncoding(enc, Fault{Site: SiteMetadata, MetaIndex: 0, Bit: 4}); err != nil {
		t.Fatal(err)
	}
	faulty := f.Dequantize(enc)
	// A shared-exponent flip scales the whole block by 2^±16.
	for i := 0; i < 4; i++ {
		c, fv := float64(clean.At(i)), float64(faulty.At(i))
		if c == 0 {
			continue
		}
		ratio := fv / c
		if math.Abs(ratio-65536) > 1 && math.Abs(ratio-1.0/65536) > 1e-6 {
			t.Fatalf("element %d: ratio %v, want 2^±16", i, ratio)
		}
	}
}

func TestFlipMetadataExpBias(t *testing.T) {
	f := numfmt.AFPe5m2()
	x := tensor.FromSlice([]float32{0.5, -0.25, 1.0}, 3)
	enc := f.Quantize(x)
	clean := f.Dequantize(enc)
	if err := FlipInEncoding(enc, Fault{Site: SiteMetadata, Bit: 2}); err != nil {
		t.Fatal(err)
	}
	faulty := f.Dequantize(enc)
	if faulty.AllClose(clean, 0) {
		t.Fatal("bias flip had no effect")
	}
}

func TestFlipMetadataOnPlainFormatErrors(t *testing.T) {
	f := numfmt.FP16(true)
	enc := f.Quantize(tensor.FromSlice([]float32{1}, 1))
	if err := FlipInEncoding(enc, Fault{Site: SiteMetadata, Bit: 0}); err == nil {
		t.Fatal("expected error: FP has no metadata")
	}
}

func TestMetaBitWidth(t *testing.T) {
	tests := []struct {
		format numfmt.Format
		want   int
	}{
		{format: numfmt.INT8(), want: 32},
		{format: numfmt.BFPe5m5(), want: 5},
		{format: numfmt.AFPe5m2(), want: 8},
		{format: numfmt.FP16(true), want: 0},
		{format: numfmt.FxP16(), want: 0},
	}
	for _, tt := range tests {
		if got := MetaBitWidth(tt.format); got != tt.want {
			t.Errorf("MetaBitWidth(%s) = %d, want %d", tt.format.Name(), got, tt.want)
		}
	}
}

// Property: double application of the same metadata flip restores the
// original decoded tensor.
func TestMetadataFlipReversibleProperty(t *testing.T) {
	formats := []numfmt.Format{numfmt.INT8(), numfmt.BFPe5m5(), numfmt.AFPe5m2()}
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		x := tensor.Randn(r, 1, 16)
		for _, f := range formats {
			enc := f.Quantize(x)
			base := f.Dequantize(enc)
			fault := RandomFault(r, f, 0, 16, SiteMetadata, TargetNeuron)
			if err := FlipInEncoding(enc, fault); err != nil {
				return false
			}
			if err := FlipInEncoding(enc, fault); err != nil {
				return false
			}
			if !f.Dequantize(enc).AllClose(base, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: RandomFault always produces in-range faults.
func TestRandomFaultInRangeProperty(t *testing.T) {
	formats := []numfmt.Format{
		numfmt.FP16(true), numfmt.FxP16(), numfmt.INT8(),
		numfmt.NewBFP(5, 5, 8), numfmt.AFPe5m2(),
	}
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		const n = 50
		for _, f := range formats {
			fv := RandomFault(r, f, 3, n, SiteValue, TargetNeuron)
			if fv.Element < 0 || fv.Element >= n || fv.Bit < 0 || fv.Bit >= f.BitWidth() {
				return false
			}
			if MetaBitWidth(f) > 0 {
				fm := RandomFault(r, f, 3, n, SiteMetadata, TargetNeuron)
				if fm.Bit < 0 || fm.Bit >= MetaBitWidth(f) {
					return false
				}
				x := tensor.New(n)
				enc := f.Quantize(x)
				if err := FlipInEncoding(enc, fm); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNeuronHookInjects(t *testing.T) {
	r := rng.New(3)
	net := nn.NewSequential("net",
		nn.NewLinear("fc1", 4, 6, r),
		nn.NewLinear("fc2", 6, 3, r),
	)
	x := tensor.Randn(r, 1, 1, 4)
	clean := nn.Forward(nil, net, x)

	format := numfmt.FP8E4M3(true)
	fault := Fault{Layer: 0, Site: SiteValue, Target: TargetNeuron, Element: 1, Bit: 7} // sign bit
	hooks := nn.NewHookSet()
	hooks.PostForward(nn.ByIndex(0), NeuronHook(format, [][]Fault{{fault}}))
	faulty := nn.Forward(nn.NewContext(hooks), net, x)
	if faulty.AllClose(clean, 1e-6) {
		t.Fatal("neuron fault did not propagate to the output")
	}
}

func TestWeightFaultAndRestore(t *testing.T) {
	r := rng.New(4)
	net := nn.NewSequential("net",
		nn.NewLinear("fc1", 4, 6, r),
		nn.NewLinear("fc2", 6, 3, r),
	)
	x := tensor.Randn(r, 1, 1, 4)
	layers := nn.Trace(net, x)
	idx := IndexModules(net, layers)

	weighted := idx.WeightedLayers()
	if len(weighted) != 2 {
		t.Fatalf("WeightedLayers = %v, want 2 entries", weighted)
	}

	clean := nn.Forward(nil, net, x)
	format := numfmt.FP16(true)
	fault := Fault{Layer: weighted[0], Site: SiteValue, Target: TargetWeight, Element: 0, Bit: 14}
	restore, err := WeightFault(format, fault, idx)
	if err != nil {
		t.Fatal(err)
	}
	faulty := nn.Forward(nil, net, x)
	if faulty.AllClose(clean, 1e-7) {
		t.Fatal("weight fault had no effect")
	}
	restore()
	restored := nn.Forward(nil, net, x)
	if !restored.AllClose(clean, 0) {
		t.Fatal("restore did not recover the original weights")
	}
}

func TestWeightFaultUnknownLayer(t *testing.T) {
	r := rng.New(5)
	net := nn.NewSequential("net", nn.NewLinear("fc", 2, 2, r))
	idx := IndexModules(net, nn.Trace(net, tensor.New(1, 1, 2)))
	_, err := WeightFault(numfmt.FP16(true), Fault{Layer: 99}, idx)
	if err == nil {
		t.Fatal("expected unknown-layer error")
	}
}

func TestBackupWeightsRestores(t *testing.T) {
	r := rng.New(6)
	net := nn.NewSequential("net", nn.NewLinear("fc", 3, 3, r))
	orig := append([]float32(nil), net.Params()[0].Value.Data()...)
	b := BackupWeights(net)
	QuantizeWeights(net, numfmt.NewFP(2, 1, true)) // aggressive: weights change
	changed := false
	for i, v := range net.Params()[0].Value.Data() {
		if v != orig[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("quantization should have altered weights")
	}
	b.Restore()
	for i, v := range net.Params()[0].Value.Data() {
		if v != orig[i] {
			t.Fatalf("weight %d not restored", i)
		}
	}
}

func TestQuantizeWeightsSkipsFrozen(t *testing.T) {
	bn := nn.NewBatchNorm2D("bn", 2)
	mean, _ := bn.RunningStats()
	mean[0] = 0.333 // not representable in fp_e2m1
	QuantizeWeights(bn, numfmt.NewFP(2, 1, true))
	mean, _ = bn.RunningStats()
	if mean[0] != 0.333 {
		t.Fatal("frozen running stats must not be quantized")
	}
}

func TestSiteTargetStrings(t *testing.T) {
	if SiteValue.String() != "value" || SiteMetadata.String() != "metadata" {
		t.Fatal("Site.String mismatch")
	}
	if TargetNeuron.String() != "neuron" || TargetWeight.String() != "weight" {
		t.Fatal("Target.String mismatch")
	}
	for _, s := range []Site{SiteValue, SiteMetadata, SiteAccum} {
		if got, err := ParseSite(s.String()); err != nil || got != s {
			t.Errorf("ParseSite(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, tg := range []Target{TargetNeuron, TargetWeight} {
		if got, err := ParseTarget(tg.String()); err != nil || got != tg {
			t.Errorf("ParseTarget(%q) = %v, %v", tg.String(), got, err)
		}
	}
	for _, bad := range []string{"", "Value", "nowhere", "Site(1)"} {
		if _, err := ParseSite(bad); err == nil {
			t.Errorf("ParseSite(%q) accepted", bad)
		}
		if _, err := ParseTarget(bad); err == nil {
			t.Errorf("ParseTarget(%q) accepted", bad)
		}
	}
	f := Fault{Layer: 3, Site: SiteMetadata, Target: TargetNeuron, MetaIndex: 2, Bit: 1}
	if f.String() != "layer 3 neuron metadata reg 2 bit 1" {
		t.Fatalf("Fault.String = %q", f.String())
	}
}

func TestStuckAtSemantics(t *testing.T) {
	f := numfmt.FxP16()
	x := tensor.FromSlice([]float32{1.0}, 1)

	// Stuck-at on an already-matching bit is a no-op.
	enc := f.Quantize(x)
	bit0 := enc.Codes[0].Bit(3)
	kind := KindStuckAt0
	if bit0 == 1 {
		kind = KindStuckAt1
	}
	if err := FlipInEncoding(enc, Fault{Site: SiteValue, Element: 0, Bit: 3, Kind: kind}); err != nil {
		t.Fatal(err)
	}
	if got := f.Dequantize(enc).At(0); got != 1.0 {
		t.Fatalf("matching stuck-at changed value to %v", got)
	}
	// The opposite stuck-at forces the bit.
	opposite := KindStuckAt1
	if kind == KindStuckAt1 {
		opposite = KindStuckAt0
	}
	if err := FlipInEncoding(enc, Fault{Site: SiteValue, Element: 0, Bit: 3, Kind: opposite}); err != nil {
		t.Fatal(err)
	}
	if got := enc.Codes[0].Bit(3); got == bit0 {
		t.Fatal("opposite stuck-at did not force the bit")
	}
}

func TestBurstFlipsEveryElement(t *testing.T) {
	f := numfmt.FxP16()
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 4)
	enc := f.Quantize(x)
	before := append([]numfmt.Bits(nil), enc.Codes...)
	if err := FlipInEncoding(enc, Fault{Site: SiteValue, Bit: 2, Kind: KindBurst}); err != nil {
		t.Fatal(err)
	}
	for i := range enc.Codes {
		if enc.Codes[i] != before[i].Flip(2) {
			t.Fatalf("element %d not burst-flipped", i)
		}
	}
}

func TestBurstMetadataHitsAllBlocks(t *testing.T) {
	f := numfmt.NewBFP(5, 5, 2)
	x := tensor.FromSlice([]float32{1, 1, 8, 8}, 4) // two blocks, different exps
	enc := f.Quantize(x)
	before := append([]uint8(nil), enc.Meta.SharedExp...)
	if err := FlipInEncoding(enc, Fault{Site: SiteMetadata, Bit: 1, Kind: KindBurst}); err != nil {
		t.Fatal(err)
	}
	for i := range enc.Meta.SharedExp {
		if enc.Meta.SharedExp[i] != before[i]^2 {
			t.Fatalf("block %d exponent not burst-flipped", i)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	if KindFlip.String() != "flip" || KindStuckAt0.String() != "stuck-at-0" ||
		KindStuckAt1.String() != "stuck-at-1" || KindBurst.String() != "burst" {
		t.Fatal("FaultKind.String mismatch")
	}
}

func TestStuckAtMetadataScale(t *testing.T) {
	f := numfmt.INT8()
	x := tensor.FromSlice([]float32{1, -1}, 2)
	enc := f.Quantize(x)
	// Force the scale's sign bit to 1: scale goes negative.
	if err := FlipInEncoding(enc, Fault{Site: SiteMetadata, Bit: 31, Kind: KindStuckAt1}); err != nil {
		t.Fatal(err)
	}
	if enc.Meta.Scale >= 0 {
		t.Fatalf("scale should be negative, got %v", enc.Meta.Scale)
	}
	// Applying the same stuck-at again is idempotent.
	s := enc.Meta.Scale
	if err := FlipInEncoding(enc, Fault{Site: SiteMetadata, Bit: 31, Kind: KindStuckAt1}); err != nil {
		t.Fatal(err)
	}
	if enc.Meta.Scale != s {
		t.Fatal("stuck-at must be idempotent")
	}
}
