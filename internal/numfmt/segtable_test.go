package numfmt

import (
	"math"
	"testing"

	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// segPreset is a preset with a segment table: its fused kernel and the
// scalar rounding the kernel must equal bit for bit.
type segPreset struct {
	f      Format
	kernel func([]float32)
	scalar func(float32) float32
}

func segPresets() []segPreset {
	p8, p16, l8, l16 := Posit8(), Posit16(), LNS8(), LNS16()
	return []segPreset{
		{p8, p8.emulateChunk, p8.roundScalar},
		{p16, p16.emulateChunk, p16.roundScalar},
		{l8, l8.emulateChunk, l8.roundScalar},
		{l16, l16.emulateChunk, l16.roundScalar},
	}
}

// checkSegKernel runs p's kernel over inputs and fails on the first
// element whose bits differ from the scalar path's.
func checkSegKernel(t *testing.T, p segPreset, inputs []float32) {
	t.Helper()
	got := append([]float32(nil), inputs...)
	p.kernel(got)
	for i, v := range inputs {
		if want := p.scalar(v); math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("%s: input %08x rounds to %08x, scalar path %08x",
				p.f.Name(), math.Float32bits(v), math.Float32bits(got[i]), math.Float32bits(want))
		}
	}
}

// Every preset table equals the scalar path at each segment's first input
// and the float32 on either side of it, in both signs, and at the inputs a
// bisection or a sign rule could get wrong: ±0, ±Inf, NaN payloads,
// subnormals, the float32 extremes and ±minpos/maxpos with their
// neighbours.
func TestSegTableMatchesScalarAtEdges(t *testing.T) {
	for _, p := range segPresets() {
		tab := sharedSegTable(p.f.Name()).get(p.scalar)
		keys := []uint32{
			0, 1, 2, 0x00400000, 0x007fffff, 0x00800000, 0x3f800000, 0x7f7fffff,
			infKey, infKey + 1, 0x7fc00000, 0x7fc12345, 0x7fffffff,
		}
		for _, m := range []float64{p.f.Range().MinPos, p.f.Range().AbsMax} {
			k := math.Float32bits(float32(m))
			keys = append(keys, k-1, k, k+1)
		}
		for _, s := range tab.segs[:len(tab.segs)-1] {
			keys = append(keys, s.start-1, s.start, s.start+1)
		}
		var inputs []float32
		for _, k := range keys {
			inputs = append(inputs, math.Float32frombits(k), math.Float32frombits(k^signBit))
		}
		checkSegKernel(t, p, inputs)
	}
}

// The table is compiled once per geometry, at its first use, and shared by
// every instance; LNS geometries wider than 16 bits have none.
func TestSegTablesSharedPerGeometry(t *testing.T) {
	segTables.mu.Lock()
	saved := segTables.m
	segTables.m = nil
	segTables.mu.Unlock()
	defer func() {
		segTables.mu.Lock()
		segTables.m = saved
		segTables.mu.Unlock()
	}()

	x := tensor.FromSlice([]float32{-3, 0.3, 1e9}, 1, 3)
	p, q := Posit8(), Posit8()
	p.Emulate(x)
	if p.seg != q.seg || q.seg.tab == nil {
		t.Fatal("two Posit8 values do not share one compiled table")
	}
	l, m := LNS8(), LNS8()
	m.Emulate(x)
	if l.seg != m.seg || l.seg.tab == nil {
		t.Fatal("two LNS8 values do not share one compiled table")
	}
	if l.seg == p.seg {
		t.Fatal("posit8 and lns8 share a table")
	}
	p16 := Posit16()
	if p16.seg.tab != nil {
		t.Fatal("the posit16 table was compiled before its first use")
	}
	AccumRounding(Posit16()).Round(x.Clone().Data())
	if p16.seg.tab == nil {
		t.Fatal("posit16's first use did not compile its table")
	}
	if NewLNS(9, 8).seg != nil {
		t.Fatal("an 18-bit LNS has a segment table")
	}
}

// A wider LNS keeps the scalar row loop, and a narrow non-preset geometry
// compiles its own table; both equal the scalar path.
func TestLNSGeometriesMatchScalar(t *testing.T) {
	var inputs []float32
	for e := -140; e <= 140; e++ {
		v := float32(math.Ldexp(1.37, e))
		inputs = append(inputs, v, -v, math.Nextafter32(v, 0))
	}
	for _, l := range []*LNS{NewLNS(9, 8), NewLNS(10, 0), NewLNS(2, 3)} {
		checkSegKernel(t, segPreset{l, l.emulateChunk, l.roundScalar}, inputs)
	}
}

// levelIndex must pick nearestLevel's index for every non-NaN input: the
// levels, the midpoints between neighbours, each cut, one ulp either side
// of all of them, values beyond both ends, ±0, ±Inf and random values.
func TestLUTLevelIndexMatchesNearestLevel(t *testing.T) {
	r := rng.New(5)
	for _, bits := range []int{2, 3, 4, 8} {
		l := NewLUT(bits)
		xs := []float64{math.Inf(1), math.Inf(-1), 2, -2, 1e300, -1e300, 0, math.Copysign(0, -1)}
		for i, lv := range l.levels {
			xs = append(xs, lv, math.Nextafter(lv, 2), math.Nextafter(lv, -2))
			if i > 0 {
				mid := l.levels[i-1] + (lv-l.levels[i-1])/2
				xs = append(xs, mid, math.Nextafter(mid, 2), math.Nextafter(mid, -2))
			}
		}
		for _, c := range l.cuts[:len(l.cuts)-1] {
			xs = append(xs, fromOrderKey(c-1), fromOrderKey(c), fromOrderKey(c+1))
		}
		for i := 0; i < 1<<14; i++ {
			xs = append(xs, 2*r.Float64()-1, r.NormFloat64())
		}
		for _, x := range xs {
			if got, want := levelIndex(l.cuts, x), l.nearestLevel(x); got != want {
				t.Fatalf("nf%d: levelIndex(%v) = %d, nearestLevel %d", bits, x, got, want)
			}
		}
	}
}
