package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host the benchmark was defined on is a shared 2-vCPU VM whose
// capacity drifts for minutes at a time: the second vCPU is there for
// some stretches and largely missing for others, and every timing of a
// run moves with it (process CPU time slows as much as wall time, so the
// loss is invisible from inside). Each run therefore also times a fixed
// reference computation before every setup repetition and between rounds,
// and scales setup_s by how slow the reference ran around the setups and
// the window's metrics by how slow it ran around the rounds: a control
// variate, which no change to the program can move because the reference
// is the benchmark's own code and runs after a full GC, with the program
// idle.
//
// The workloads slow by less than the reference, which keeps both vCPUs
// busy throughout: over a set of ten runs, log(rate) against
// log(reference time) fits slopes of -0.3 to -0.8. refExponent was fixed
// from the first such set and held for every later one.
const (
	refExponent = 0.5
	refNominal  = 0.030 // the reference's typical time on the defining host; sets the scale only
)

// refSize and refIters size the reference: each of load goroutines
// multiplies its own refSize² float32 matrices (about 200 KB,
// cache-resident like the program's GEMM tiles) refIters times.
const (
	refSize  = 128
	refIters = 16
)

// refSeconds collects the program's garbage, so no background GC work
// overlaps the reference, and then times the reference.
func refSeconds() float64 {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < load; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refKernel()
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// hostScale is how much slower than nominal the host ran, as the
// workloads feel it: times are divided by it and rates multiplied.
func hostScale(refs []float64) float64 {
	return math.Pow(mean(refs)/refNominal, refExponent)
}

// refSink keeps the reference's result live so the compiler cannot drop
// its loop.
var (
	refMu   sync.Mutex
	refSink float32
)

func refKernel() {
	a := make([]float32, refSize*refSize)
	b := make([]float32, refSize*refSize)
	c := make([]float32, refSize*refSize)
	for i := range a {
		a[i], b[i] = float32(i%7), float32(i%5)
	}
	for it := 0; it < refIters; it++ {
		for i := 0; i < refSize; i++ {
			ci := c[i*refSize : (i+1)*refSize]
			for k := 0; k < refSize; k++ {
				av := a[i*refSize+k]
				bk := b[k*refSize : (k+1)*refSize]
				for j := range ci {
					ci[j] += av * bk[j]
				}
			}
		}
	}
	refMu.Lock()
	refSink += c[len(c)-1]
	refMu.Unlock()
}
