package goldeneye

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"

	"goldeneye/internal/lru"
	"goldeneye/internal/numfmt"
)

// The calibration cache. Campaigns on one model, one format and one pool —
// Fig 7's sites × layers, a daemon's jobs, a sweep's rounds — compare
// against the same fault-free run, so the clean state the setup sweeps
// compute (see cleanState) is shared across campaigns under a key that
// digests everything those sweeps read. A hit skips setup; a miss runs it
// and stores the sealed state. docs/PERFORMANCE.md §13 has the key, what
// bypasses it, and the bounds.

// The cache's bounds, in entries and in the bytes of the states' per-sample
// tables, which the cut tables dominate. An entry larger than the byte
// bound on its own is not stored.
const (
	calibrationCacheEntries = 16
	calibrationCacheBytes   = 32 << 20
)

// calibrations is the process-wide calibration cache: sealed clean states
// by calibration key. Two concurrent misses on one key may both compute the
// state; their results are the same bits, and the first stored is kept.
var calibrations = lru.New[[sha256.Size]byte](calibrationCacheEntries, calibrationCacheBytes, (*cleanState).bytes)

// calibrationsOff is a test seam: it bypasses the cache, so every campaign
// runs its setup sweeps and stores nothing.
var calibrationsOff atomic.Bool

// bytes is the state's size in the cache's byte bound: its per-sample
// tables — the cut table, the clean references and the full-pass marks.
// The ranger bounds and ABFT checksums grow with the layer count, not the
// pool, and are left out.
func (st *cleanState) bytes() int {
	n := 8*len(st.cleanPred) + 8*len(st.cleanLoss) + len(st.fullPass)
	if st.cuts != nil {
		n += 4 * st.cuts.Len()
	}
	return n
}

// calibrationKey digests everything the setup sweeps of calibration c read
// on s, whose weights newRunner converted: the traced layer list with each
// layer's output size, every parameter (frozen BatchNorm statistics
// included) by name, shape and bits, the pool, the assignment, UseRanger,
// the pack batch, the cut block (0 when reuse is off), the detector specs
// and the recovery policy. ok is false when the campaign bypasses the
// cache: a detector with a custom factory, whose state comes from outside
// the key, or an assignment the key cannot name (see assignmentKey).
func (s *Simulator) calibrationKey(c *calibration, block int) (key [sha256.Size]byte, ok bool) {
	cfg := c.cfg
	if calibrationsOff.Load() {
		return key, false
	}
	for _, d := range cfg.Detectors {
		if d.New != nil {
			return key, false
		}
	}
	asg, ok := assignmentKey(cfg.Assignment)
	if !ok {
		return key, false
	}
	// Strings are quoted and every float block follows the shape that
	// fixes its length, so no two inputs write the same bytes. A hash's
	// Write never fails.
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	floats := func(v []float32) {
		for len(v) > 0 {
			n := min(len(v), cap(buf)/4)
			buf = buf[:0]
			for _, x := range v[:n] {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
			}
			h.Write(buf)
			v = v[n:]
		}
	}
	fmt.Fprintf(h, "%q %d|", asg, len(s.layers))
	for _, l := range s.layers {
		fmt.Fprintf(h, "%q %d|", l.String(), s.sizes[l.Index])
	}
	for _, p := range s.model.Params() {
		fmt.Fprintf(h, "%q %t %v|", p.Name, p.Frozen, p.Value.Shape())
		floats(p.Value.Data())
	}
	pool := c.geom.pool
	fmt.Fprintf(h, "pool %v|", pool.X.Shape())
	floats(pool.X.Data())
	fmt.Fprintf(h, "%v %t %d %d|", pool.Y, cfg.UseRanger, c.batch, block)
	for _, d := range cfg.Detectors {
		fmt.Fprintf(h, "%q %x|", d.Kind, math.Float64bits(d.Margin))
	}
	fmt.Fprintf(h, "%d", cfg.Recovery)
	copy(key[:], h.Sum(nil))
	return key, true
}

// assignmentKey names asg for the calibration key: its canonical rendering
// plus every role format's dynamic type, so a format and numfmt.Generic of
// it, which share a name, key apart. ok is false when a role format's type
// is not declared in package numfmt, whose names carry each format's
// parameters: a caller's own Format type may give two formats one name.
func assignmentKey(asg *FormatAssignment) (string, bool) {
	if asg == nil {
		return "", true
	}
	fs := []numfmt.Format{asg.Params}
	roles := func(rf RoleFormats) { fs = append(fs, rf.Weights, rf.Activations, rf.Accumulator) }
	roles(asg.Default)
	for _, k := range asg.sortedLayers() {
		roles(asg.PerLayer[k])
	}
	var sb strings.Builder
	sb.WriteString(asg.Canonical())
	for _, f := range fs {
		t, ok := formatType(f)
		if !ok {
			return "", false
		}
		sb.WriteString("|" + t)
	}
	return sb.String(), true
}

var numfmtPath = reflect.TypeOf(numfmt.FP{}).PkgPath()

// formatType renders f's dynamic type, and the wrapped format's for a
// wrapper such as numfmt.Generic; ok is false when one of them is not
// declared in package numfmt. A nil format renders empty.
func formatType(f numfmt.Format) (string, bool) {
	if f == nil {
		return "", true
	}
	t := reflect.TypeOf(f)
	base := t
	if base.Kind() == reflect.Pointer {
		base = base.Elem()
	}
	if base.PkgPath() != numfmtPath {
		return "", false
	}
	name := t.String()
	if v := reflect.ValueOf(f); v.Kind() == reflect.Struct && v.NumField() > 0 && v.Field(0).CanInterface() {
		if inner, ok := v.Field(0).Interface().(numfmt.Format); ok {
			in, ok := formatType(inner)
			return name + "(" + in + ")", ok
		}
	}
	return name, true
}
