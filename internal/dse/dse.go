// Package dse implements the paper's design-space-exploration heuristic for
// number-format selection (§IV-B, Fig 5): an approximate, accuracy-
// preserving recursive binary-tree search over a format family's bitwidth
// and radix hyperparameters. The search aggressively shortens the bitwidth
// while measured accuracy stays within a threshold of the FP32 baseline,
// then refines the radix at the shortest acceptable width; it visits at
// most MaxNodes nodes (the paper reports completion within 16).
package dse

import (
	"fmt"

	"goldeneye/internal/numfmt"
)

// Family identifies a number-format family under exploration.
type Family string

// Explorable format families.
const (
	FamilyFP    Family = "fp"
	FamilyFxP   Family = "fxp"
	FamilyINT   Family = "int"
	FamilyBFP   Family = "bfp"
	FamilyAFP   Family = "afp"
	FamilyPosit Family = "posit"
)

// Families returns the five families the paper evaluates (Fig 6).
func Families() []Family {
	return []Family{FamilyFP, FamilyFxP, FamilyINT, FamilyBFP, FamilyAFP}
}

// Point is one format configuration: a family plus its (bitwidth, radix)
// hyperparameters. Radix follows the paper's terminology: the bit position
// separating exponent/integer bits from mantissa/fraction bits — i.e. the
// mantissa width for FP/AFP, the fraction width for FxP, and the shared-
// exponent width for BFP. INT has no radix.
type Point struct {
	Family Family
	Bits   int
	Radix  int
}

// String renders "family-bN-rM".
func (p Point) String() string {
	return fmt.Sprintf("%s-b%d-r%d", p.Family, p.Bits, p.Radix)
}

// MakeFormat materializes a Point as a Format, or reports why the geometry
// is invalid.
func MakeFormat(p Point) (numfmt.Format, error) {
	switch p.Family {
	case FamilyFP, FamilyAFP:
		e := p.Bits - 1 - p.Radix
		if e < 2 || p.Radix < 1 {
			return nil, fmt.Errorf("dse: invalid %s geometry bits=%d radix=%d", p.Family, p.Bits, p.Radix)
		}
		if p.Family == FamilyFP {
			if e > 11 {
				return nil, fmt.Errorf("dse: FP exponent width %d unsupported", e)
			}
			return numfmt.NewFP(e, p.Radix, true), nil
		}
		if e > 8 {
			return nil, fmt.Errorf("dse: AFP exponent width %d exceeds bias register", e)
		}
		return numfmt.NewAFP(e, p.Radix, true), nil
	case FamilyFxP:
		i := p.Bits - 1 - p.Radix
		if i < 0 || p.Radix < 0 || i+p.Radix < 1 {
			return nil, fmt.Errorf("dse: invalid fxp geometry bits=%d radix=%d", p.Bits, p.Radix)
		}
		return numfmt.NewFxP(i, p.Radix), nil
	case FamilyINT:
		if p.Bits < 2 {
			return nil, fmt.Errorf("dse: invalid int width %d", p.Bits)
		}
		return numfmt.NewINT(p.Bits), nil
	case FamilyBFP:
		m := p.Bits - 1
		if m < 1 || m > 30 || p.Radix < 2 || p.Radix > 8 {
			return nil, fmt.Errorf("dse: invalid bfp geometry bits=%d radix=%d", p.Bits, p.Radix)
		}
		return numfmt.NewBFP(p.Radix, m, 0), nil
	case FamilyPosit:
		if p.Bits < 3 || p.Bits > 16 || p.Radix < 0 || p.Radix > 3 {
			return nil, fmt.Errorf("dse: invalid posit geometry bits=%d es=%d", p.Bits, p.Radix)
		}
		return numfmt.NewPosit(p.Bits, p.Radix), nil
	default:
		return nil, fmt.Errorf("dse: unknown family %q", p.Family)
	}
}

// defaultRadix picks the balanced radix the width search uses before the
// radix subtree refines it.
func defaultRadix(f Family, bits int) int {
	switch f {
	case FamilyFP, FamilyAFP:
		e := bits / 2
		if e < 2 {
			e = 2
		}
		if e > 8 {
			e = 8
		}
		if bits-1-e < 1 {
			e = bits - 2
		}
		return bits - 1 - e
	case FamilyFxP:
		return bits / 2
	case FamilyBFP:
		return 5 // shared-exponent width; refined by the radix subtree
	case FamilyPosit:
		if bits >= 10 {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// radixRange returns the searchable radix interval at a given width.
func radixRange(f Family, bits int) (lo, hi int) {
	switch f {
	case FamilyFP, FamilyAFP:
		// Mantissa range keeps the exponent in the supported window
		// (2..11 for FP, 2..8 for AFP whose bias register is int8).
		maxExp := 11
		if f == FamilyAFP {
			maxExp = 8
		}
		lo := bits - 1 - maxExp
		if lo < 1 {
			lo = 1
		}
		return lo, bits - 3
	case FamilyFxP:
		return 0, bits - 1
	case FamilyBFP:
		return 2, 8
	case FamilyPosit:
		return 0, 3 // exponent field width es
	default:
		return 0, 0
	}
}

// Node is one visited design point.
type Node struct {
	Point    Point
	Accuracy float64
	Order    int
	Accepted bool
}

// Config parameterizes a search.
type Config struct {
	Family Family

	// Baseline is the native FP32 accuracy measured before the search.
	Baseline float64

	// Threshold is the tolerated accuracy drop (paper example: 1%).
	Threshold float64

	// MinBits and MaxBits bound the width search (defaults 4 and 32).
	MinBits int
	MaxBits int

	// MaxNodes caps the number of evaluated design points (default 16,
	// matching the paper's observed bound).
	MaxNodes int
}

func (c *Config) setDefaults() {
	if c.MinBits == 0 {
		c.MinBits = 4
	}
	if c.MaxBits == 0 {
		c.MaxBits = 32
	}
	if c.Family == FamilyPosit && c.MaxBits > 16 {
		c.MaxBits = 16 // posit implementation is table-backed up to 16 bits
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 16
	}
}

// Result is the search outcome.
type Result struct {
	Config Config

	// Nodes lists every visited design point in visit order (Fig 6's
	// x-axis).
	Nodes []Node

	// Best is the accepted node with the fewest bits (nil if none was
	// accepted).
	Best *Node
}

// Accepted returns the visited nodes meeting the accuracy threshold.
func (r *Result) Accepted() []Node {
	var out []Node
	for _, n := range r.Nodes {
		if n.Accepted {
			out = append(out, n)
		}
	}
	return out
}

// Search runs the heuristic. eval measures a format's task accuracy (e.g.
// validation top-1 under full emulation); it is called once per node, and
// results are memoized per configuration.
func Search(cfg Config, eval func(numfmt.Format) float64) *Result {
	cfg.setDefaults()
	searchStats.searches.Add(1)
	res := &Result{Config: cfg}
	memo := make(map[Point]float64)

	visit := func(p Point) (float64, bool) {
		if len(res.Nodes) >= cfg.MaxNodes {
			return 0, false
		}
		if acc, ok := memo[p]; ok {
			searchStats.memoHits.Add(1)
			return acc, true
		}
		f, err := MakeFormat(p)
		if err != nil {
			return 0, false
		}
		searchStats.evaluations.Add(1)
		acc := eval(f)
		memo[p] = acc
		accepted := acc >= cfg.Baseline-cfg.Threshold
		if accepted {
			searchStats.accepted.Add(1)
		}
		res.Nodes = append(res.Nodes, Node{
			Point:    p,
			Accuracy: acc,
			Order:    len(res.Nodes),
			Accepted: accepted,
		})
		return acc, true
	}
	ok := func(acc float64) bool { return acc >= cfg.Baseline-cfg.Threshold }

	// Phase 1 — width subtree: bisect for the shortest acceptable width,
	// taking the left (shorter) child whenever the node is acceptable.
	lo, hi := cfg.MinBits, cfg.MaxBits
	bestBits := -1
	for lo <= hi && len(res.Nodes) < cfg.MaxNodes {
		mid := (lo + hi) / 2
		p := Point{Family: cfg.Family, Bits: mid, Radix: defaultRadix(cfg.Family, mid)}
		acc, visited := visit(p)
		if !visited {
			break
		}
		if ok(acc) {
			bestBits = mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if bestBits < 0 {
		// Nothing acceptable: report what was visited.
		res.Best = nil
		return res
	}

	// Phase 2 — radix subtree at the shortest acceptable width: bisect the
	// radix interval toward higher accuracy (accuracy over radix is
	// approximately unimodal: too little range clips, too little precision
	// rounds away information).
	if cfg.Family != FamilyINT {
		rlo, rhi := radixRange(cfg.Family, bestBits)
		for rhi-rlo > 1 && len(res.Nodes) < cfg.MaxNodes-1 {
			m1 := rlo + (rhi-rlo)/3
			m2 := rhi - (rhi-rlo)/3
			if m1 == m2 {
				m2++
			}
			a1, ok1 := visit(Point{Family: cfg.Family, Bits: bestBits, Radix: m1})
			a2, ok2 := visit(Point{Family: cfg.Family, Bits: bestBits, Radix: m2})
			if !ok1 || !ok2 {
				break
			}
			if a1 >= a2 {
				rhi = m2 - 1
			} else {
				rlo = m1 + 1
			}
		}
		if len(res.Nodes) < cfg.MaxNodes && rlo == rhi {
			visit(Point{Family: cfg.Family, Bits: bestBits, Radix: rlo})
		}
	}

	// Select the best node: fewest bits among accepted, highest accuracy
	// as tie-break.
	for i := range res.Nodes {
		n := &res.Nodes[i]
		if !n.Accepted {
			continue
		}
		if res.Best == nil ||
			n.Point.Bits < res.Best.Point.Bits ||
			(n.Point.Bits == res.Best.Point.Bits && n.Accuracy > res.Best.Accuracy) {
			res.Best = n
		}
	}
	return res
}
