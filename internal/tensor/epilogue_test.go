package tensor

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"goldeneye/internal/rng"
)

// bitsEqual reports exact float32 bit equality between two tensors,
// treating NaN payloads as equal to themselves only (bit comparison).
func bitsEqual(t *testing.T, got, want *Tensor) {
	t.Helper()
	if !shapeEqual(got.shape, want.shape) {
		t.Fatalf("shape %v vs %v", got.shape, want.shape)
	}
	for i := range got.data {
		if math.Float32bits(got.data[i]) != math.Float32bits(want.data[i]) {
			t.Fatalf("element %d differs: %v (%#x) vs %v (%#x)",
				i, got.data[i], math.Float32bits(got.data[i]),
				want.data[i], math.Float32bits(want.data[i]))
		}
	}
}

// MatMulBias must be bit-identical to the unfused MatMul+Add sequence it
// replaces in the layer forward path — including on outputs large enough
// to take the parallel-rows path.
func TestMatMulBiasMatchesMatMulAdd(t *testing.T) {
	for _, dims := range [][3]int{{3, 5, 7}, {1, 8, 4}, {64, 96, 300}} {
		m, k, n := dims[0], dims[1], dims[2]
		r := rng.New(42)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		bias := Randn(r, 1, n)
		want := a.MatMul(b).Add(bias)
		got := a.MatMulBias(b, bias, Epilogue{})
		bitsEqual(t, got, want)
	}
}

func TestMatMulBiasNilBias(t *testing.T) {
	r := rng.New(7)
	a := Randn(r, 1, 4, 6)
	b := Randn(r, 1, 6, 3)
	bitsEqual(t, a.MatMulBias(b, nil, Epilogue{}), plainKernel(a, b))
}

// Tile epilogues run inside the producing workers over disjoint chunks
// that exactly cover the output; Whole runs once after the barrier with
// the full storage.
func TestMatMulBiasEpilogueCoverage(t *testing.T) {
	r := rng.New(9)
	m, k, n := 40, 16, 512 // m*n over ParallelMinElems: parallel path
	a := Randn(r, 1, m, k)
	b := Randn(r, 1, k, n)

	var covered atomic.Int64
	got := a.MatMulBias(b, nil, Epilogue{Tile: func(chunk []float32) {
		covered.Add(int64(len(chunk)))
		for i := range chunk {
			chunk[i] += 1
		}
	}})
	if covered.Load() != int64(m*n) {
		t.Fatalf("tile chunks covered %d of %d elements", covered.Load(), m*n)
	}
	want := a.MatMul(b).AddScalar(1)
	bitsEqual(t, got, want)

	wholeCalls := 0
	a.MatMulBias(b, nil, Epilogue{Whole: func(data []float32) {
		wholeCalls++
		if len(data) != m*n {
			t.Fatalf("Whole got len %d", len(data))
		}
	}})
	if wholeCalls != 1 {
		t.Fatalf("Whole ran %d times", wholeCalls)
	}
}

func TestEpilogueEmpty(t *testing.T) {
	if !(Epilogue{}).Empty() {
		t.Fatal("zero epilogue should be empty")
	}
	if (Epilogue{Whole: func([]float32) {}}).Empty() {
		t.Fatal("epilogue with Whole should not be empty")
	}
}

func TestWrapAliases(t *testing.T) {
	buf := []float32{1, 2, 3, 4, 5, 6}
	w := Wrap(buf, 2, 3)
	w.Set(42, 1, 2)
	if buf[5] != 42 {
		t.Fatal("Wrap did not alias the slice")
	}
	buf[0] = -1
	if w.At(0, 0) != -1 {
		t.Fatal("slice writes not visible through the tensor")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap with mismatched length should panic")
		}
	}()
	Wrap(buf, 7)
}

func TestGatherRowsIntoMatchesGather0(t *testing.T) {
	r := rng.New(3)
	src := Randn(r, 1, 6, 4)
	idx := []int{5, 0, 0, 3}
	dst := New(len(idx), 4)
	GatherRowsInto(dst, src, idx)
	bitsEqual(t, dst, Gather0(src, idx))
}

func TestArenaReusesBuffers(t *testing.T) {
	a := NewArena()
	b1 := a.Get(100)
	if len(b1) != 100 || cap(b1) != 128 {
		t.Fatalf("Get(100) gave len %d cap %d", len(b1), cap(b1))
	}
	a.Put(b1)
	b2 := a.Get(128) // same size class: must come back from the pool
	if len(b2) != 128 || cap(b2) != 128 {
		t.Fatalf("Get(128) gave len %d cap %d", len(b2), cap(b2))
	}
	// The race detector randomly drops sync.Pool puts and gets, so the
	// round trip is observable only without it.
	if !raceEnabled && &b1[0] != &b2[0] {
		t.Fatal("arena did not reuse the pooled buffer")
	}
	if got := a.Get(0); got != nil {
		t.Fatalf("Get(0) = %v", got)
	}
	a.Put(nil)                   // no-op
	a.Put(make([]float32, 0, 7)) // non-power-of-two capacity: dropped
}

// The arena is shared by concurrent campaigns; hammer Get/Put from many
// goroutines (run under -race by make check).
func TestArenaConcurrent(t *testing.T) {
	a := NewArena()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 1 + (w*31+i*17)%4096
				buf := a.Get(n)
				for j := range buf {
					buf[j] = float32(w)
				}
				for j := range buf {
					if buf[j] != float32(w) {
						t.Errorf("buffer shared between goroutines")
						return
					}
				}
				a.Put(buf)
			}
		}(w)
	}
	wg.Wait()
}
