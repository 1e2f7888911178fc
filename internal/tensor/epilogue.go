package tensor

// Epilogue is a set of optional callbacks an operation (MatMulBias, the
// conv forward) applies to its freshly written output while it is still
// cache-hot, instead of forcing the caller into a follow-up whole-tensor
// pass. All callbacks mutate the storage they are handed in place.
//
// At most one of the two fields is consulted, in this order:
//
//   - Tile runs inside the producing operation's worker goroutines on each
//     contiguous output chunk as soon as that chunk is complete. Only
//     element-local transforms (each element depends on nothing but
//     itself) may use Tile — the chunk boundaries are an implementation
//     detail of the producer's parallel decomposition.
//   - Whole runs once on the full output storage after all workers finish,
//     for transforms that need state beyond one element — tensor-wide or
//     per-sample quantization metadata, whose geometry the transform
//     carries itself (see numfmt.EmulateEpilogue).
//
// The zero Epilogue is a no-op; producers skip it without overhead.
type Epilogue struct {
	Tile  func(chunk []float32)
	Whole func(data []float32)

	// Accum, when active, moves the epilogue machinery *inside* the GEMM
	// reduction: MatMulBias — the GEMM of Linear and of the conv forward
	// alike — runs its accumulator kernel instead of the plain one,
	// quantizing every partial sum and landing scheduled faults
	// mid-reduction. Unlike the two
	// callbacks above it is not a transform of the completed output, so it
	// does not participate in Empty — hook fusion decisions are about the
	// output transform only. It is set by the layer's Forward (from the
	// accumulator spec staged on the context), never by hook registration.
	Accum *AccumHook
}

// Empty reports whether the epilogue carries no output callbacks, i.e.
// applying it to a completed output is a no-op. Accum is deliberately
// excluded: it alters the reduction, not the completed output.
func (ep Epilogue) Empty() bool {
	return ep.Tile == nil && ep.Whole == nil
}

// AccumFault is one scheduled corruption of a GEMM accumulator register, in
// GEMM coordinates: after reduction step Step of output element (Row, Col)
// is accumulated, Apply rewrites that element's partial sum in place. The
// corrupted value then participates in the remaining reduction steps —
// faults injected early propagate through more accumulation than faults
// injected late, which is exactly the accumulator-interior behaviour
// tensor-boundary injection cannot express.
type AccumFault struct {
	Row, Col int
	Step     int
	Apply    func(float32) float32
}

// AccumHook threads accumulator-interior behaviour into a GEMM. Quant, when
// non-nil, models a reduced-precision accumulator register: it rounds a
// slice of partial sums in place, each element independently of the
// others, and the GEMM rounds each output row after every
// multiply-accumulate step whose A value is nonzero (and after the bias
// add), maintaining the invariant that the register only ever holds
// representable values until a fault writes one it cannot. An *FPRound
// Quant is data the AVX2 accumulator tile rounds with in registers; any
// other Rounding runs the portable sweep. Faults are applied at their
// scheduled (row, step) positions, after the step's rounding; faults
// sharing a (row, step) apply in slice order. A nil hook — or one with
// neither field set — selects the plain kernel with zero overhead.
type AccumHook struct {
	Quant  Rounding
	Faults []AccumFault
}

// Active reports whether the hook changes the reduction at all. Safe on a
// nil receiver, so producers can gate on ep.Accum.Active() directly.
func (h *AccumHook) Active() bool {
	return h != nil && (h.Quant != nil || len(h.Faults) > 0)
}

// Apply runs the epilogue's post-barrier stage, Whole, on a completed
// output. When Tile is set it does nothing — the producer already applied
// the epilogue chunk-wise — so producers can call Apply unconditionally
// after their workers finish.
//
// Apply is kept out of line on purpose. Inlined into its producers, it
// moves the Go GEMM kernels compiled after it (matmulRowsAccumGo,
// addScaledRow and matmulRowsGo) from 0 to 32 mod 64 bytes, where their
// inner loops ran 15-25% slower on a 2-vCPU Xeon VM (go1.24). On AVX2
// hosts the plain GEMM and the FPRound accumulator GEMM are assembly whose
// loops PCALIGN aligns, so this protects the Go fallback only: other
// architectures, purego builds, and accumulators in FxP, posit, LNS or an
// FP wider than FPRound covers, whose rows the Go sweep hands to the
// format's fused row kernel.
//
//go:noinline
func (ep Epilogue) Apply(data []float32) {
	if ep.Tile == nil && ep.Whole != nil {
		ep.Whole(data)
	}
}
