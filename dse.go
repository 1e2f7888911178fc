package goldeneye

import (
	"goldeneye/internal/dse"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/tensor"
)

// DSE re-exports for the public API.
type (
	// DSEConfig parameterizes a design-space exploration (paper §IV-B).
	DSEConfig = dse.Config
	// DSEResult is a completed exploration.
	DSEResult = dse.Result
	// DSENode is one visited design point.
	DSENode = dse.Node
	// DSEPoint is a (family, bits, radix) configuration.
	DSEPoint = dse.Point
	// Family is a number-format family identifier.
	Family = dse.Family
)

// Format family identifiers.
const (
	FamilyFP  = dse.FamilyFP
	FamilyFxP = dse.FamilyFxP
	FamilyINT = dse.FamilyINT
	FamilyBFP = dse.FamilyBFP
	FamilyAFP = dse.FamilyAFP
)

// MakeFormat materializes a DSE point as a Format.
func MakeFormat(p DSEPoint) (Format, error) { return dse.MakeFormat(p) }

// RunDSE explores the given format family for the wrapped model: each
// visited design point is evaluated as validation accuracy under full
// emulation (weights and neurons), and the recursive binary-tree heuristic
// of §IV-B picks the path. cfg.Baseline is filled in automatically from a
// native FP32 evaluation when zero.
func (s *Simulator) RunDSE(x *tensor.Tensor, y []int, batch int, cfg DSEConfig) *DSEResult {
	if cfg.Baseline == 0 {
		cfg.Baseline = s.Evaluate(x, y, batch, EmulationConfig{})
	}
	return dse.Search(cfg, func(f numfmt.Format) float64 {
		return s.Evaluate(x, y, batch, EmulationConfig{Assignment: &FormatAssignment{
			Default: RoleFormats{Activations: f}, Params: f,
		}})
	})
}

// Mixed-assignment DSE re-exports.
type (
	// MixedDSEConfig parameterizes a per-layer mixed-assignment search.
	MixedDSEConfig = dse.MixedConfig
	// MixedDSECandidate is one per-layer role-triple precision option.
	MixedDSECandidate = dse.MixedCandidate
	// MixedDSENode is one evaluated mixed assignment.
	MixedDSENode = dse.MixedNode
	// MixedDSEResult is a completed mixed-assignment search, including the
	// accuracy×cost Pareto frontier over visited assignments.
	MixedDSEResult = dse.MixedResult
)

// MixedAssignment materializes one searched assignment as a
// FormatAssignment: each searched layer gets its candidate's role triple as
// a PerLayer entry. candidates must be the search's cost-ordered menu
// (MixedDSEResult.Candidates, or dse.OrderCandidates inside an eval
// callback) — assignment values index it.
func MixedAssignment(candidates []MixedDSECandidate, assignment map[int]int) *FormatAssignment {
	asg := &FormatAssignment{PerLayer: make(map[int]RoleFormats, len(assignment))}
	for layer, ci := range assignment {
		c := candidates[ci]
		asg.PerLayer[layer] = RoleFormats{
			Weights:     c.Weights,
			Activations: c.Activations,
			Accumulator: c.Accumulator,
		}
	}
	return asg
}

// RunMixedDSE searches per-layer mixed-precision assignments for the
// wrapped model (see dse.SearchMixed): each candidate is a (weights,
// activations, accumulator) role triple, every evaluated assignment runs as
// validation accuracy under the corresponding FormatAssignment, and the
// result carries the per-layer accuracy×cost Pareto frontier.
// cfg.Baseline is filled in from a native FP32 evaluation when zero;
// cfg.Layers defaults to the model's injectable CONV/LINEAR layers.
func (s *Simulator) RunMixedDSE(pool *EvalPool, cfg MixedDSEConfig) *MixedDSEResult {
	if len(cfg.Layers) == 0 {
		cfg.Layers = s.InjectableLayers()
	}
	if cfg.Baseline == 0 {
		cfg.Baseline = s.EvaluatePool(pool, EmulationConfig{})
	}
	ordered := dse.OrderCandidates(cfg.Candidates)
	return dse.SearchMixed(cfg, func(assignment map[int]int) float64 {
		return s.EvaluatePool(pool, EmulationConfig{Assignment: MixedAssignment(ordered, assignment)})
	})
}
