//go:build exhaustive

package numfmt

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Every float32 input, all 2^32 bit patterns, of every preset with a
// segment table rounds exactly as the scalar path does. This takes
// minutes, so it builds only under the exhaustive tag:
//
//	make exhaustive-formats
func TestExhaustiveSegTables(t *testing.T) {
	const chunk = 1 << 16
	for _, p := range segPresets() {
		var (
			next atomic.Uint64 // next chunk of the 2^32 patterns to check
			bad  atomic.Uint64 // first differing input + 1, or 0
			wg   sync.WaitGroup
		)
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]float32, chunk)
				for bad.Load() == 0 {
					c := next.Add(1) - 1
					if c >= 1<<32/chunk {
						return
					}
					for i := range buf {
						buf[i] = math.Float32frombits(uint32(c*chunk + uint64(i)))
					}
					p.kernel(buf)
					for i, got := range buf {
						in := uint32(c*chunk + uint64(i))
						want := p.scalar(math.Float32frombits(in))
						if math.Float32bits(got) != math.Float32bits(want) {
							bad.CompareAndSwap(0, uint64(in)+1)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if b := bad.Load(); b != 0 {
			in := math.Float32frombits(uint32(b - 1))
			checkSegKernel(t, p, []float32{in})
			t.Fatalf("%s: input %08x differs from the scalar path", p.f.Name(), uint32(b-1))
		}
	}
}
