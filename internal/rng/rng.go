// Package rng provides a small, fast, deterministic random number generator
// used across GoldenEye for dataset synthesis, weight initialization, and
// fault-injection campaigns.
//
// The generator is SplitMix64, chosen because it is trivially portable,
// allocation-free, and produces identical streams on every platform for a
// given seed. Determinism is a core design goal of the simulator: a campaign
// seed fully determines every injected fault, so experiments are exactly
// reproducible (see DESIGN.md §5).
package rng

import "math"

// RNG is a deterministic SplitMix64 pseudo-random number generator.
// The zero value is a valid generator seeded with 0; prefer New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child generator from the current stream.
// The child's sequence does not overlap the parent's for practical lengths.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0,
// mirroring math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a normally distributed value with mean 0 and
// standard deviation 1, using the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	// Draw u1 in (0, 1] to keep the logarithm finite.
	// The conversion keeps the draw's inlined scaling from fusing with
	// the subtraction into one FMA on architectures that have one.
	u1 := 1.0 - float64(r.Float64())
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
