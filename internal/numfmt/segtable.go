package numfmt

import (
	"math"
	"sync"
)

// Segment tables: the fused kernel of posit and LNS.
//
// Both formats round each element alone, and their rounding is a monotone
// map of the float32 magnitude whose output takes the input's sign (an
// output of +0 or NaN takes none). Ordered as unsigned integers, the bits
// of the non-negative float32 values are that line in order, so the map is
// a step function of the magnitude's bits: a run of consecutive keys, one
// segment, shares each output. Every preset has at most 2^16 outputs, so
// the whole map fits a table of segments, compiled once per geometry from
// the scalar path itself: each segment's first key is found by bisection
// against it. A 2^16-entry index on the key's top bits names the segment
// holding each bucket's first key, and a lookup is one index read plus a
// short forward scan — no sort.Search, Log2 or Exp2 per element.
//
// The table is exactly the scalar path wherever that path is monotone,
// which the bisection assumes: TestSegTableMatchesScalarAtEdges checks
// every segment boundary and the exceptional inputs, and `make
// exhaustive-formats` checks all 2^32 float32 inputs of every preset.

const (
	signBit = 1 << 31
	infKey  = 0x7f800000 // +Inf; keys above it are NaN magnitudes

	// bucketShift maps a 31-bit magnitude key onto its 2^16 index buckets.
	bucketShift = 31 - 16

	// maxSegments bounds a table's segments: the index stores uint16 numbers.
	maxSegments = 1 << 16
)

// seg is one run of keys sharing an output. out is the output's bits with
// bit 31 set when the output takes the input's sign.
type seg struct {
	start uint32 // first magnitude key of the run
	out   uint32
}

// segTable is a compiled rounding map over float32 magnitudes.
type segTable struct {
	segs   []seg            // ordered by start; the last is a sentinel above every key
	bucket *[1 << 16]uint16 // bucket[k>>bucketShift]: the segment holding that bucket's first key
}

// newSegTable compiles round, a monotone map of non-negative float32
// values, into a segment table. round must map every NaN alike; its
// output for a negative input must be the negated output of the magnitude,
// except that +0 and NaN outputs stay as they are.
func newSegTable(round func(float32) float32) *segTable {
	at := func(k uint32) uint32 { return math.Float32bits(round(math.Float32frombits(k))) }
	t := &segTable{}
	add := func(k, out uint32) {
		if out != 0 && out&^signBit <= infKey {
			out |= signBit // nonzero and not NaN: takes the input's sign
		}
		t.segs = append(t.segs, seg{start: k, out: out})
	}
	last := at(infKey)
	for k := uint32(0); ; {
		out := at(k)
		add(k, out)
		if out == last {
			break
		}
		lo, hi := k, uint32(infKey) // at(lo) == out != at(hi)
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; at(mid) == out {
				lo = mid
			} else {
				hi = mid
			}
		}
		k = hi
	}
	add(infKey+1, at(0x7fc00000))
	t.segs = append(t.segs, seg{start: math.MaxUint32})
	if len(t.segs) > maxSegments {
		panic("numfmt: rounding map has more segments than a table indexes")
	}
	t.bucket = new([1 << 16]uint16)
	j := 0
	for b := range t.bucket {
		k := uint32(b) << bucketShift
		for t.segs[j+1].start <= k {
			j++
		}
		t.bucket[b] = uint16(j)
	}
	return t
}

// round replaces every element of data by its table output in place.
func (t *segTable) round(data []float32) {
	segs, bucket := t.segs, t.bucket
	for i, v := range data {
		b := math.Float32bits(v)
		k := b &^ signBit
		j := int(bucket[uint16(k>>bucketShift)])
		for segs[j+1].start <= k {
			j++
		}
		out := segs[j].out
		data[i] = math.Float32frombits(out&^signBit | b&out&signBit)
	}
}

// lazySegTable is one geometry's table, compiled at its first use.
type lazySegTable struct {
	once sync.Once
	tab  *segTable
}

// get returns the table, compiling it from round on the first call.
func (l *lazySegTable) get(round func(float32) float32) *segTable {
	l.once.Do(func() { l.tab = newSegTable(round) })
	return l.tab
}

// segTables holds one lazySegTable per geometry, keyed by format name
// (which names the geometry), so every instance of a geometry shares one
// table.
var segTables struct {
	mu sync.Mutex
	m  map[string]*lazySegTable
}

// sharedSegTable returns the geometry's shared table slot; it compiles
// nothing.
func sharedSegTable(name string) *lazySegTable {
	segTables.mu.Lock()
	defer segTables.mu.Unlock()
	l, ok := segTables.m[name]
	if !ok {
		if segTables.m == nil {
			segTables.m = make(map[string]*lazySegTable)
		}
		l = &lazySegTable{}
		segTables.m[name] = l
	}
	return l
}
