package detect

import (
	"math"
	"testing"

	"goldeneye/internal/nn"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// emitModule is a stub layer that ignores its input and emits a preset
// tensor, letting tests hand exact activation values to armed hooks through
// a real forward pass.
type emitModule struct {
	name string
	out  *tensor.Tensor
}

func (e *emitModule) Name() string                                       { return e.name }
func (e *emitModule) Kind() nn.Kind                                      { return nn.KindLinear }
func (e *emitModule) Forward(*nn.Context, *tensor.Tensor) *tensor.Tensor { return e.out }
func (e *emitModule) Backward(g *tensor.Tensor) *tensor.Tensor           { return g }
func (e *emitModule) Params() []*nn.Param                                { return nil }

// runHooks fires the hook set over a forward pass that emits each tensor in
// turn (layer indices 0, 1, ...), returning the final activation.
func runHooks(hooks *nn.HookSet, outs ...*tensor.Tensor) *tensor.Tensor {
	mods := make([]nn.Module, len(outs))
	for i, o := range outs {
		mods[i] = &emitModule{name: "emit", out: o}
	}
	model := nn.NewSequential("m", mods...)
	return nn.Forward(nn.NewContext(hooks), model, outs[0])
}

// tinyTarget builds a 2-layer linear model and its Target view, the fixture
// the structural-detector tests share.
func tinyTarget() Target {
	r := rng.New(1)
	model := nn.NewSequential("m",
		nn.NewLinear("fc1", 4, 6, r),
		nn.NewReLU("act"),
		nn.NewLinear("fc2", 6, 3, r),
	)
	x := tensor.Randn(rng.New(2), 1, 1, 4)
	return Target{
		Model:   model,
		Layers:  nn.Trace(model, x),
		Modules: nn.TraceModules(model, x),
	}
}

func forward(t Target, hooks *nn.HookSet, x *tensor.Tensor) *tensor.Tensor {
	return nn.Forward(nn.NewContext(hooks), t.Model, x)
}

// calibrate calibrates d with one pass of fault-free forwards of model
// over xs, folds the pass and seals the detector.
func calibrate(t *testing.T, d Detector, model nn.Module, xs ...*tensor.Tensor) {
	t.Helper()
	hooks, fold := d.CalibrationHooks()
	ctx := nn.NewContext(hooks)
	for _, x := range xs {
		nn.Forward(ctx, model, x)
	}
	if fold != nil {
		fold()
	}
	if err := d.FinishCalibration(); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderDedupAndOrder(t *testing.T) {
	rec := NewRecorder(3)
	rec.Flag("ranger", 2, 1)
	rec.Flag("ranger", 4, 1) // same detector+row: deduped, first kept
	rec.Flag("sentinel", 4, 1)
	rec.Flag("ranger", 0, 2)
	rec.Flag("ranger", 0, 7) // out of range: ignored
	if got := rec.DetectedBy(1); len(got) != 2 || got[0] != "ranger" || got[1] != "sentinel" {
		t.Fatalf("DetectedBy(1) = %v, want firing order [ranger sentinel]", got)
	}
	if got := rec.DetectedBy(0); got != nil {
		t.Fatalf("DetectedBy(0) = %v, want nil", got)
	}
	if !rec.RowFlagged(2) || rec.RowFlagged(0) {
		t.Fatal("RowFlagged wrong")
	}
	if !rec.AnyFlagged() {
		t.Fatal("AnyFlagged false after flags")
	}
	if got := len(rec.Events()); got != 3 {
		t.Fatalf("events = %d, want 3 (dedup per detector/row, bounds check)", got)
	}
	if e := rec.Events()[0]; e.Detector != "ranger" || e.Layer != 2 || e.Row != 1 {
		t.Fatalf("first event must keep the first flag, got %+v", e)
	}
}

func TestRecorderNonFinite(t *testing.T) {
	rec := NewRecorder(2)
	if rec.FirstNonFiniteLayer(0) != -1 {
		t.Fatal("unobserved row must report -1")
	}
	rec.MarkNonFinite(3, 0)
	rec.MarkNonFinite(1, 0) // keeps the first mark
	if got := rec.FirstNonFiniteLayer(0); got != 3 {
		t.Fatalf("FirstNonFiniteLayer = %d, want the first mark 3", got)
	}
	if rec.FirstNonFiniteLayer(1) != -1 {
		t.Fatal("other rows unaffected")
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"": PolicyNone, "none": PolicyNone, "clamp": PolicyClamp, "zero": PolicyZero,
		"reexecute": PolicyReexecute, "reexec": PolicyReexecute, "abort": PolicyAbort,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		back, err := ParsePolicy(want.String())
		if err != nil || back != want {
			t.Errorf("String/Parse round-trip broken for %v", want)
		}
	}
	if _, err := ParsePolicy("retry"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("ranger, sentinel,abft")
	if err != nil {
		t.Fatal(err)
	}
	if got := Names(specs); len(got) != 3 || got[0] != "ranger" || got[1] != "sentinel" || got[2] != "abft" {
		t.Fatalf("Names = %v", got)
	}
	if specs, err := ParseSpecs(""); err != nil || specs != nil {
		t.Fatalf("empty list should parse to nil, got %v, %v", specs, err)
	}
	if _, err := ParseSpecs("ranger,voodoo"); err == nil {
		t.Fatal("unknown detector accepted")
	}
}

func TestBuildRejectsDuplicates(t *testing.T) {
	specs, err := ParseSpecs("sentinel,sentinel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(specs, PolicyNone, tinyTarget()); err == nil {
		t.Fatal("duplicate detector accepted")
	}
}

func TestBuildEmptyIsNil(t *testing.T) {
	p, err := Build(nil, PolicyNone, tinyTarget())
	if err != nil || p != nil {
		t.Fatalf("empty build = %v, %v; want nil pipeline", p, err)
	}
}

// Calibrate a ranger on a fault-free pass, then verify the armed hooks
// never flag that same pass and do flag an out-of-range activation, row-
// confined.
func TestRangerCalibrateAndDetect(t *testing.T) {
	tgt := tinyTarget()
	x := tensor.Randn(rng.New(3), 1, 4, 4)
	r := NewRanger()
	calibrate(t, r, tgt.Model, x)
	rec := NewRecorder(4)
	forward(tgt, r.Arm(rec, PolicyNone), x)
	if rec.AnyFlagged() {
		t.Fatalf("ranger flagged its own calibration pass: %+v", rec.Events())
	}
	// Push one row's input far outside the calibrated envelope.
	hot := x.Clone()
	for i := 0; i < 4; i++ {
		hot.Set(1e6, 2, i)
	}
	rec = NewRecorder(4)
	forward(tgt, r.Arm(rec, PolicyNone), hot)
	if !rec.RowFlagged(2) {
		t.Fatal("out-of-range row not flagged")
	}
	if rec.RowFlagged(0) || rec.RowFlagged(1) || rec.RowFlagged(3) {
		t.Fatalf("detection must be row-confined, got %+v", rec.Events())
	}
}

// PolicyClamp on a flagged row must deliver exactly what the legacy
// unconditional clamp would: in-range values untouched, NaN → hi, and
// violations clamped to the calibrated bounds. The clean row must not be
// touched at all.
func TestRangerClampSemantics(t *testing.T) {
	r := NewRanger()
	r.lo[0], r.hi[0] = -1, 2
	rec := NewRecorder(2)
	out := tensor.FromSlice([]float32{0.5, -3, float32(math.NaN()), 9, 0.25, 1, -0.5, 2}, 2, 4)
	runHooks(r.Arm(rec, PolicyClamp), out)
	want := []float32{0.5, -1, 2, 2, 0.25, 1, -0.5, 2}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("clamp[%d] = %v, want %v (full: %v)", i, v, want[i], out.Data())
		}
	}
	if !rec.RowFlagged(0) || rec.RowFlagged(1) {
		t.Fatal("only the violating row should flag")
	}
}

func TestRangerZeroPolicy(t *testing.T) {
	r := NewRanger()
	r.lo[0], r.hi[0] = -1, 2
	rec := NewRecorder(1)
	out := tensor.FromSlice([]float32{0.5, 9, -0.5, 1}, 1, 4)
	runHooks(r.Arm(rec, PolicyZero), out)
	want := []float32{0.5, 0, -0.5, 1}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("zero[%d] = %v, want %v", i, v, want[i])
		}
	}
}

// calibratedRanger calibrates a ranger on fault-free passes of net over x,
// batch samples at a time.
func calibratedRanger(t *testing.T, net nn.Module, x *tensor.Tensor, batch int) *Ranger {
	t.Helper()
	r := NewRanger()
	var slices []*tensor.Tensor
	for lo := 0; lo < x.Dim(0); lo += batch {
		slices = append(slices, x.Slice(lo, min(lo+batch, x.Dim(0))))
	}
	calibrate(t, r, net, slices...)
	return r
}

func TestRangerClampHookClamps(t *testing.T) {
	r := rng.New(7)
	net := nn.NewSequential("net", nn.NewLinear("fc", 4, 4, r))
	x := tensor.Randn(r, 1, 8, 4)
	profile := calibratedRanger(t, net, x, 4)
	lo, hi, ok := profile.Bounds(0)
	if !ok || lo >= hi {
		t.Fatalf("implausible bounds %v, %v", lo, hi)
	}

	// A wildly out-of-range activation must be clamped.
	hooks := nn.NewHookSet()
	hooks.PostForward(nn.ByIndex(0), func(_ nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		out := t.Clone()
		out.Data()[0] = 1e20
		out.Data()[1] = float32(math.NaN())
		return out
	})
	hooks.PostForward(nn.AllLayers(), profile.ClampHook())
	y := nn.Forward(nn.NewContext(hooks), net, x.Slice(0, 1))
	if y.CountNonFinite() != 0 {
		t.Fatal("ClampHook must remove non-finite values")
	}
	if y.Data()[0] > hi || y.Data()[1] > hi {
		t.Fatalf("values not clamped to %v: %v", hi, y.Data()[:2])
	}
}

// ClampHook hands an in-range output back as is, without allocating; only a
// tensor with a value to clamp is copied, and the input is left untouched.
func TestRangerClampHookAllocFreeInRange(t *testing.T) {
	r := rng.New(8)
	net := nn.NewSequential("net", nn.NewLinear("fc", 4, 4, r))
	x := tensor.Randn(r, 1, 8, 4)
	profile := calibratedRanger(t, net, x, 8)
	hook := profile.ClampHook()
	info := nn.LayerInfo{Name: "fc", Kind: nn.KindLinear, Index: 0}
	y := nn.Forward(nil, net, x) // the profiled activations: in range by construction
	if got := hook(info, y); got != y {
		t.Fatal("ClampHook copied an in-range tensor")
	}
	if allocs := testing.AllocsPerRun(100, func() { hook(info, y) }); allocs != 0 {
		t.Fatalf("ClampHook allocates %.1f objects on an in-range tensor, want 0", allocs)
	}

	_, hi, _ := profile.Bounds(0)
	bad := y.Clone()
	bad.Data()[3] = float32(math.NaN())
	got := hook(info, bad)
	if got == bad || got.Data()[3] != hi || !math.IsNaN(float64(bad.Data()[3])) {
		t.Fatalf("out-of-range tensor: clamped %v into %v, want a copy holding %v", bad.Data()[3], got.Data()[3], hi)
	}
}

// The sentinel flags rows with non-finite activations and attributes the
// first non-finite layer; under PolicyZero it squashes the non-finite
// elements only.
func TestSentinelFlagsAndAttributes(t *testing.T) {
	s := Sentinel{}
	rec := NewRecorder(2)
	clean := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	dirty := tensor.FromSlice([]float32{1, 2, float32(math.Inf(1)), 4}, 2, 2)
	runHooks(s.Arm(rec, PolicyNone), clean, dirty)
	if rec.RowFlagged(0) {
		t.Fatal("finite row flagged")
	}
	if !rec.RowFlagged(1) {
		t.Fatal("non-finite row not flagged")
	}
	if got := rec.FirstNonFiniteLayer(1); got != 1 {
		t.Fatalf("FirstNonFiniteLayer = %d, want layer 1 (the dirty emit)", got)
	}
	rec = NewRecorder(2)
	out := tensor.FromSlice([]float32{1, 2, float32(math.NaN()), 4}, 2, 2)
	runHooks(s.Arm(rec, PolicyZero), out)
	d := out.Data()
	if d[0] != 1 || d[1] != 2 || d[2] != 0 || d[3] != 4 {
		t.Fatalf("zero policy result %v", d)
	}
}

func TestDMRCompareBitwise(t *testing.T) {
	d := DMR{}
	var det Detector = d
	if _, ok := det.(Comparator); !ok {
		t.Fatal("DMR must advertise itself as a Comparator")
	}
	rec := NewRecorder(2)
	faulty := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	rerun := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	d.Compare(rec, faulty, rerun)
	if rec.AnyFlagged() {
		t.Fatal("identical outputs flagged")
	}
	// A NaN-corrupted row must flag — the case a numeric |a−b| > 0 check
	// misses because NaN comparisons are always false.
	faulty.Set(float32(math.NaN()), 1, 0)
	rec = NewRecorder(2)
	d.Compare(rec, faulty, rerun)
	if rec.RowFlagged(0) || !rec.RowFlagged(1) {
		t.Fatalf("bitwise compare must flag exactly the corrupted row: %+v", rec.Events())
	}
}

// ABFT: calibration fixes per-layer thresholds such that the calibration
// pool never flags, while weight corruption against the sealed checksums is
// detected — the class of persistent fault DMR is structurally blind to.
func TestABFTDetectsCorruption(t *testing.T) {
	tgt := tinyTarget()
	x := tensor.Randn(rng.New(5), 1, 4, 4)
	a, err := NewABFT(tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.margin != DefaultABFTMargin {
		t.Fatalf("margin 0 must fall back to the default, got %v", a.margin)
	}
	calibrate(t, a, tgt.Model, x)
	rec := NewRecorder(4)
	forward(tgt, a.Arm(rec, PolicyNone), x)
	if rec.AnyFlagged() {
		t.Fatalf("abft flagged its calibration pool: %+v", rec.Events())
	}
	// Corrupt a weight hard after the checksums were sealed.
	var lin *nn.Linear
	for _, m := range tgt.Modules {
		if l, ok := m.(*nn.Linear); ok {
			lin = l
			break
		}
	}
	w := lin.Weight().Value.Data()
	orig := w[0]
	w[0] = orig + 50
	rec = NewRecorder(4)
	forward(tgt, a.Arm(rec, PolicyNone), x)
	w[0] = orig
	if !rec.AnyFlagged() {
		t.Fatal("abft missed persistent weight corruption")
	}
	for idx := range a.checks {
		if a.Tolerance(idx) <= 0 {
			t.Fatalf("layer %d tolerance must be positive after sealing", idx)
		}
	}
}

func TestABFTNeedsGuardableLayer(t *testing.T) {
	model := nn.NewSequential("m", nn.NewReLU("act"))
	x := tensor.Randn(rng.New(1), 1, 1, 4)
	tgt := Target{Model: model, Layers: nn.Trace(model, x), Modules: nn.TraceModules(model, x)}
	if _, err := NewABFT(tgt, 0); err == nil {
		t.Fatal("abft built without any linear/conv layer")
	}
}

func TestRowSpan(t *testing.T) {
	if lo, hi, ok := rowSpan(12, 3, 1); !ok || lo != 4 || hi != 8 {
		t.Fatalf("rowSpan(12,3,1) = %d,%d,%v", lo, hi, ok)
	}
	// Indivisible data attributes everything to row 0.
	if _, _, ok := rowSpan(10, 3, 1); ok {
		t.Fatal("indivisible span must not slice rows 1+")
	}
	if lo, hi, ok := rowSpan(10, 3, 0); !ok || lo != 0 || hi != 10 {
		t.Fatalf("rowSpan(10,3,0) = %d,%d,%v", lo, hi, ok)
	}
}

// FuzzRangerCalibration: for any finite activation tensor, bounds learned
// from a pass must never flag the pass that produced them (the zero-false-
// positive invariant the campaign's FP sweep relies on).
func FuzzRangerCalibration(f *testing.F) {
	f.Add(int16(300), int16(-200), int16(150), uint8(3))
	f.Add(int16(0), int16(0), int16(0), uint8(0))
	f.Add(int16(-32768), int16(32767), int16(1), uint8(255))
	f.Fuzz(func(t *testing.T, a, b, c int16, salt uint8) {
		vals := [3]float32{float32(a) / 8, float32(b) / 8, float32(c) / 8}
		data := make([]float32, 12)
		state := uint32(salt) + 1
		for i := range data {
			state = state*1664525 + 1013904223
			data[i] = vals[state%3] * (1 + float32(state%7)/16)
		}
		out := tensor.FromSlice(data, 3, 4)
		r := NewRanger()
		hooks, fold := r.CalibrationHooks()
		runHooks(hooks, out)
		fold()
		if err := r.FinishCalibration(); err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(3)
		runHooks(r.Arm(rec, PolicyNone), out)
		if rec.AnyFlagged() {
			lo, hi, _ := r.Bounds(0)
			t.Fatalf("bounds [%v,%v] flag the calibrating tensor %v", lo, hi, data)
		}
	})
}
