package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// gemmValue draws one operand of the differential GEMM tests. class picks
// the kind of value, so a test or fuzz input steers the mix of ±0, ±Inf,
// quiet and signalling NaNs with distinct payloads, subnormals and normals.
func gemmValue(rng *rand.Rand, class byte) float32 {
	sign := uint32(rng.Intn(2)) << 31
	switch class % 8 {
	case 0:
		return 0
	case 1:
		return math.Float32frombits(1 << 31)
	case 2:
		return math.Float32frombits(sign | 0x7f800000)
	case 3: // NaN, quiet or signalling, with a random payload
		return math.Float32frombits(sign | 0x7f800000 | uint32(1+rng.Intn(1<<23-1)))
	case 4:
		return math.Float32frombits(sign | uint32(1+rng.Intn(1<<23-1)))
	case 5: // exponents that overflow or underflow in the product
		return math.Float32frombits(sign | rng.Uint32()>>1)
	default:
		return float32(rng.NormFloat64())
	}
}

// gemmOperands builds A (m×k), B (k×n) and a nonzero initial C (m×n).
// pick supplies the value classes in turn (normals when it is empty);
// rows of A listed in zeroRows are all ±0.
func gemmOperands(rng *rand.Rand, m, k, n int, pick []byte, zeroRows uint16) (a, b, c []float32) {
	next := 0
	draw := func() float32 {
		if len(pick) == 0 {
			return float32(rng.NormFloat64())
		}
		next++
		return gemmValue(rng, pick[next%len(pick)])
	}
	fill := func(s []float32) {
		for i := range s {
			s[i] = draw()
		}
	}
	a, b, c = make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	fill(a)
	fill(b)
	fill(c)
	for i := 0; i < m; i++ {
		if zeroRows&(1<<i) != 0 {
			for p := range a[i*k : (i+1)*k] {
				a[i*k+p] = gemmValue(rng, byte(rng.Intn(2)))
			}
		}
	}
	return a, b, c
}

// checkGEMMKernel runs matmulRows and matmulRowsGo over rows [lo, hi) of
// the same operands and requires every element of C to match bit for bit.
// Under the race detector the compiler emits the Go loop's add with C as
// its first source (ADDSS prod, X(c)), so where both addends are NaN the
// instrumented reference keeps C's payload; there only NaN-ness is
// compared.
func checkGEMMKernel(t *testing.T, a, b, c []float32, lo, hi, k, n int) {
	t.Helper()
	got, want := append([]float32(nil), c...), append([]float32(nil), c...)
	matmulRows(got, a, b, lo, hi, k, n)
	matmulRowsGo(want, a, b, lo, hi, k, n)
	for i := range want {
		if raceEnabled && got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("rows [%d,%d) k=%d n=%d: C[%d][%d] = %#08x, pure Go %#08x",
				lo, hi, k, n, i/n, i%n, g, w)
		}
	}
}

func TestGEMMKernelMatchesPureGo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {4, 1, 16}, {4, 3, 16}, {5, 7, 17}, {6, 12, 10}, {9, 33, 47},
		{8, 16, 32}, {3, 0, 5}, {12, 108, 200}, {7, 5, 8}, {2, 9, 64},
	}
	for trial := 0; trial < 400; trial++ {
		var m, k, n int
		if trial < len(shapes) {
			m, k, n = shapes[trial][0], shapes[trial][1], shapes[trial][2]
		} else {
			m, k, n = 1+rng.Intn(9), rng.Intn(40), 1+rng.Intn(70)
		}
		pick := make([]byte, 1+rng.Intn(12))
		rng.Read(pick)
		a, b, c := gemmOperands(rng, m, k, n, pick, uint16(rng.Intn(1<<m)))
		lo := rng.Intn(m)
		checkGEMMKernel(t, a, b, c, lo, m, k, n)
	}
}

// TestGEMMKernelNaNOperandOrder pins which payload survives when both
// operands of the multiply, and then of the add, are NaN: B's in the
// product, the product's in the sum — on every row and column position.
func TestGEMMKernelNaNOperandOrder(t *testing.T) {
	const m, k, n = 6, 3, 21
	nanA, nanB, nanC := uint32(0x7fc0000a), uint32(0xffc0000b), uint32(0x7fa0000c)
	a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	for i := range a {
		a[i] = math.Float32frombits(nanA)
	}
	for i := range b {
		b[i] = math.Float32frombits(nanB)
	}
	for i := range c {
		c[i] = math.Float32frombits(nanC)
	}
	matmulRows(c, a, b, 0, m, k, n)
	for i, v := range c {
		if got := math.Float32bits(v); got != nanB {
			t.Fatalf("C[%d][%d] = %#08x, want B's payload %#08x", i/n, i%n, got, nanB)
		}
	}
}

// FuzzGEMMKernelVsPureGo compares the dispatching GEMM kernel (the AVX2
// assembly where the CPU has it) with the portable loop bit for bit, NaN
// payloads included, over 1–9 rows, any column count and k from 0.
func FuzzGEMMKernelVsPureGo(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(16), int64(1), uint16(0), []byte{6})
	f.Add(uint8(6), uint8(12), uint8(10), int64(2), uint16(0b100100), []byte{6, 0, 1, 6, 6})
	f.Add(uint8(9), uint8(5), uint8(37), int64(3), uint16(1), []byte{3, 3, 6, 2})
	f.Add(uint8(5), uint8(0), uint8(7), int64(4), uint16(0), []byte{})
	f.Add(uint8(3), uint8(9), uint8(20), int64(5), uint16(0b10), []byte{4, 4, 6, 0, 5})
	f.Add(uint8(1), uint8(17), uint8(1), int64(6), uint16(0), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed int64, zeroRows uint16, pick []byte) {
		mm, kk, nn := 1+int(m%9), int(k%48), 1+int(n%72)
		rng := rand.New(rand.NewSource(seed))
		a, b, c := gemmOperands(rng, mm, kk, nn, pick, zeroRows)
		checkGEMMKernel(t, a, b, c, int(seed&0xff)%mm, mm, kk, nn)
	})
}

// BenchmarkGEMMKernel times the plain GEMM kernel on resnet_m's conv
// shapes at batch 16 and on linear-shaped products, single-threaded. The
// relu shape zeroes about half of A, as a ReLU does to a linear layer's
// input, so its blocks run the zero-skipping loops.
func BenchmarkGEMMKernel(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
		relu    bool
	}{
		{"conv12x108x4096", 12, 108, 4096, false},
		{"conv24x216x1024", 24, 216, 1024, false},
		{"conv48x432x256", 48, 432, 256, false},
		{"linear520x64x192", 520, 64, 192, false},
		{"linear520x64x192relu", 520, 64, 192, true},
		{"head16x48x10", 16, 48, 10, false},
	} {
		rng := rand.New(rand.NewSource(1))
		a, bm, _ := gemmOperands(rng, s.m, s.k, s.n, nil, 0)
		if s.relu {
			for i, v := range a {
				a[i] = max(v, 0)
			}
		}
		c := make([]float32, s.m*s.n)
		for _, k := range []struct {
			name string
			fn   func(c, a, b []float32, lo, hi, k, n int)
		}{{"kernel", matmulRows}, {"purego", matmulRowsGo}} {
			b.Run(s.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(c, a, bm, 0, s.m, s.k, s.n)
				}
				b.ReportMetric(2*float64(s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
