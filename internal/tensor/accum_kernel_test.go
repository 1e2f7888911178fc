package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// accumGeometries are the (exponent, mantissa) widths of the accumulator
// differential tests: fp16, bf16, fp8 e4m3 and fp8 e5m2.
var accumGeometries = [][2]int{{5, 10}, {8, 7}, {4, 3}, {5, 2}}

// accumValue draws one operand of the accumulator tests: gemmValue's
// classes (±0, ±Inf, NaN payloads, subnormals, overflowing and normal
// values) plus values at fp16's max-finite and one float32 ulp around it.
func accumValue(rng *rand.Rand, class byte) float32 {
	if class%10 < 8 {
		return gemmValue(rng, class%10)
	}
	bits := math.Float32bits(65504) + uint32(rng.Intn(3)) - 1
	return math.Float32frombits(uint32(rng.Intn(2))<<31 | bits)
}

// accumFaults returns nf faults over rows [0, m), columns [0, n) and steps
// [-1, k], some outside [0, k) so they never land. About half repeat the
// previous fault's (row, step), so rows and steps carry several faults,
// some of them on one element. A fault either writes a value out of the
// format's range or at its edge (±1e30, 1e-30, ±Inf, a NaN payload) or
// flips one bit. Where zeroNext is set, the A entry of the step right after
// a fault's step is ±0, so the register carries the written value through
// a step that must not round it.
func accumFaults(rng *rand.Rand, a []float32, m, k, n, nf int, zeroNext bool) []AccumFault {
	writes := []float32{1e30, -1e30, 1e-30, float32(math.Inf(-1)), math.Float32frombits(0x7fa00001), 70000}
	var faults []AccumFault
	for len(faults) < nf {
		f := AccumFault{Row: rng.Intn(m), Col: rng.Intn(n), Step: rng.Intn(k+2) - 1}
		if len(faults) > 0 && rng.Intn(2) == 0 {
			prev := faults[len(faults)-1]
			f.Row, f.Step = prev.Row, prev.Step
			if rng.Intn(2) == 0 {
				f.Col = prev.Col
			}
		}
		if w := rng.Intn(len(writes) + 1); w < len(writes) {
			v := writes[w]
			f.Apply = func(float32) float32 { return v }
		} else {
			bit := uint32(1) << rng.Intn(32)
			f.Apply = func(x float32) float32 { return math.Float32frombits(math.Float32bits(x) ^ bit) }
		}
		if zeroNext && f.Step+1 >= 0 && f.Step+1 < k {
			a[f.Row*k+f.Step+1] = math.Float32frombits(uint32(rng.Intn(2)) << 31)
		}
		faults = append(faults, f)
	}
	return faults
}

// checkAccumKernel runs matmulRowsAccum with an FPRound accumulator (the
// AVX2 tile where the CPU has it) and the portable sweep with the portable
// rounding over rows [lo, m) of the same operands, and requires every
// element of C to match bit for bit. Under the race detector the Go
// sweep's add takes C as its first source, so where both addends are NaN
// only NaN-ness is compared, as in checkGEMMKernel.
func checkAccumKernel(t *testing.T, r *FPRound, a, b, c []float32, faults []AccumFault, lo, m, k, n int) {
	t.Helper()
	sorted := faultsByRowStep(faults)
	got, want := append([]float32(nil), c...), append([]float32(nil), c...)
	matmulRowsAccum(got, a, b, lo, m, k, n, r, sorted)
	matmulRowsAccumGo(want, a, b, lo, m, k, n, RoundFunc(r.roundGo), sorted)
	for i := range want {
		if raceEnabled && got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("rows [%d,%d) k=%d n=%d, %d faults: C[%d][%d] = %#08x, pure Go %#08x",
				lo, m, k, n, len(faults), i/n, i%n, g, w)
		}
	}
}

func TestAccumKernelMatchesPureGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {4, 1, 16}, {4, 3, 16}, {5, 7, 17}, {6, 12, 10}, {9, 33, 47},
		{8, 16, 32}, {3, 0, 5}, {12, 64, 200}, {7, 5, 8}, {2, 9, 64}, {4, 64, 192},
	}
	for trial := 0; trial < 300; trial++ {
		var m, k, n int
		if trial < len(shapes) {
			m, k, n = shapes[trial][0], shapes[trial][1], shapes[trial][2]
		} else {
			m, k, n = 1+rng.Intn(9), rng.Intn(40), 1+rng.Intn(70)
		}
		g := accumGeometries[trial%len(accumGeometries)]
		r := NewFPRound(g[0], g[1], trial%8 < 4)
		pick := make([]byte, 1+rng.Intn(12))
		rng.Read(pick)
		a, b, c := accumOperands(rng, m, k, n, pick)
		faults := accumFaults(rng, a, m, k, n, rng.Intn(10), trial%3 != 0)
		checkAccumKernel(t, r, a, b, c, faults, rng.Intn(m), m, k, n)
	}
}

// accumOperands builds A (m×k), B (k×n) and an initial C (m×n) from the
// value classes pick supplies in turn (normals when it is empty), with
// about a quarter of A set to ±0 on top.
func accumOperands(rng *rand.Rand, m, k, n int, pick []byte) (a, b, c []float32) {
	next := 0
	draw := func() float32 {
		if len(pick) == 0 {
			return float32(rng.NormFloat64())
		}
		next++
		return accumValue(rng, pick[next%len(pick)])
	}
	a, b, c = make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	for _, s := range [][]float32{a, b, c} {
		for i := range s {
			s[i] = draw()
		}
	}
	for i := range a {
		if rng.Intn(4) == 0 {
			a[i] = math.Float32frombits(uint32(rng.Intn(2)) << 31)
		}
	}
	return a, b, c
}

// FuzzAccumKernelVsPureGo compares the accumulator GEMM with an FPRound
// register (the AVX2 tile where the CPU has it) with the portable sweep
// and the portable rounding bit for bit, over 1–9 rows, any column count,
// k from 0, fp16, bf16 and both fp8 geometries with and without
// denormals, and up to 15 faults.
func FuzzAccumKernelVsPureGo(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(16), int64(1), uint8(0), uint8(0), []byte{6})
	f.Add(uint8(6), uint8(12), uint8(10), int64(2), uint8(1), uint8(3), []byte{6, 0, 1, 6, 6})
	f.Add(uint8(9), uint8(5), uint8(37), int64(3), uint8(2), uint8(5), []byte{3, 3, 6, 2})
	f.Add(uint8(5), uint8(0), uint8(7), int64(4), uint8(3), uint8(1), []byte{})
	f.Add(uint8(3), uint8(9), uint8(20), int64(5), uint8(4), uint8(8), []byte{4, 4, 6, 0, 5, 8, 9})
	f.Add(uint8(1), uint8(17), uint8(1), int64(6), uint8(7), uint8(15), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(2), uint8(30), uint8(23), int64(7), uint8(5), uint8(12), []byte{8, 6, 9, 6})
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed int64, format, nf uint8, pick []byte) {
		mm, kk, nn := 1+int(m%9), int(k%48), 1+int(n%72)
		g := accumGeometries[int(format)%len(accumGeometries)]
		r := NewFPRound(g[0], g[1], format&4 == 0)
		rng := rand.New(rand.NewSource(seed))
		a, b, c := accumOperands(rng, mm, kk, nn, pick)
		faults := accumFaults(rng, a, mm, kk, nn, int(nf%16), format&8 == 0)
		checkAccumKernel(t, r, a, b, c, faults, int(seed&0xff)%mm, mm, kk, nn)
	})
}

// FPRound.Round (the AVX2 kernel where the CPU has it) must round every
// element as the portable loop does, for every geometry FPRound covers,
// over chunk lengths with every tail, the edge patterns (±NaN payloads,
// ±Inf, ±0, float32 subnormals, float32 and format max-finite) and random
// bit patterns.
func TestFPRoundMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := []uint32{
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fc12345,
		0x7f800000, 0xff800000, 0, 0x80000000, 1, 0x80000001, 0x007fffff,
		0x00800000, 0x7f7fffff, 0xff7fffff, math.Float32bits(65504), math.Float32bits(65520),
	}
	for e := 2; e <= 8; e++ {
		for m := 1; m <= 22; m++ {
			for _, dn := range []bool{true, false} {
				r := NewFPRound(e, m, dn)
				edge := append([]uint32(nil), edges...)
				edge = append(edge, r.maxBits[0]-1, r.maxBits[0], r.maxBits[0]+1, r.minNorm[0]-1, r.minNorm[0])
				for size := 0; size <= 40; size++ {
					data := make([]float32, size)
					for i := range data {
						if rng.Intn(3) == 0 {
							data[i] = math.Float32frombits(edge[rng.Intn(len(edge))] | uint32(rng.Intn(2))<<31)
						} else {
							data[i] = math.Float32frombits(rng.Uint32())
						}
					}
					got, want := append([]float32(nil), data...), append([]float32(nil), data...)
					r.Round(got)
					r.roundGo(want)
					for i := range want {
						if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
							t.Fatalf("e%dm%d denormals=%v: input %#08x rounds to %#08x, portable loop %#08x",
								e, m, dn, math.Float32bits(data[i]), g, w)
						}
					}
				}
			}
		}
	}
}

// BenchmarkAccumKernel times the accumulator GEMM with an fp16 register,
// single-threaded, on a vit_tiny token linear and on resnet-shaped conv
// GEMMs: the dispatching kernel (the AVX2 tile where the CPU has it)
// against the portable sweep with the portable rounding.
func BenchmarkAccumKernel(b *testing.B) {
	r := NewFPRound(5, 10, true)
	for _, s := range []struct {
		name    string
		m, k, n int
	}{
		{"linear65x64x192", 65, 64, 192},
		{"conv12x108x1024", 12, 108, 1024},
		{"head16x48x10", 16, 48, 10},
	} {
		rng := rand.New(rand.NewSource(1))
		a, bm, _ := gemmOperands(rng, s.m, s.k, s.n, nil, 0)
		c := make([]float32, s.m*s.n)
		for _, k := range []struct {
			name  string
			quant Rounding
			fn    func(c, a, b []float32, lo, hi, k, n int, quant Rounding, faults []AccumFault)
		}{{"kernel", r, matmulRowsAccum}, {"purego", RoundFunc(r.roundGo), matmulRowsAccumGo}} {
			b.Run(s.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(c)
					k.fn(c, a, bm, 0, s.m, s.k, s.n, k.quant, nil)
				}
				b.ReportMetric(2*float64(s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
