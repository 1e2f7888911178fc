package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"goldeneye/internal/numfmt"
	"goldeneye/internal/tensor"
)

// span is one benchmark call into a layer of the system. Parent is the
// index of the enclosing span (-1 for none); Op identifies the operation
// (campaign, evaluation, job) the span belongs to; Lane is the Chrome
// trace thread the span is drawn on, so concurrent spans do not overlap.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
	Op         int
	Lane       int
}

// tracer keeps spans in memory until the workload ends. A disabled tracer
// records nothing: begin returns -1 and end ignores it, so untraced code
// paths call it unconditionally.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op, lane int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Lane: lane})
	return len(t.spans) - 1
}

// end closes the span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-finished span, for phases the benchmark only
// learns the boundaries of afterwards (a campaign's first progress
// callback, a job's first running snapshot).
func (t *tracer) record(name string, start, end time.Time, parent, op, lane int) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
		Parent: parent, Op: op, Lane: lane})
}

// layerTime is one span name's totals: how often it ran, its summed
// duration, and its self time (duration minus the part of it that child
// spans cover).
type layerTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layers aggregates the finished spans by name.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.TotalS += d.Seconds()
		lt.SelfS += (d - covered(s, children[i])).Seconds()
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers;
// concurrent children (two campaign workers building at once) count once.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// writeChrome writes the spans as a Chrome trace-event file, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func (t *tracer) writeChrome(path, process string) error {
	t.mu.Lock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "parent": s.Parent, "op": s.Op},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counters is a snapshot of the program's always-on kernel counters plus
// process CPU time; the traced run also reads the Go runtime's memory
// statistics.
type counters struct {
	wall    time.Time
	tensor  tensor.OpStats
	numfmt  numfmt.OpCounts
	cpu     time.Duration
	mem     runtime.MemStats
	withMem bool
}

func snapshot(withMem bool) counters {
	c := counters{wall: time.Now(), tensor: tensor.ReadOpStats(), numfmt: numfmt.ReadOpCounts(), withMem: withMem}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if withMem {
		runtime.ReadMemStats(&c.mem)
	}
	return c
}

// counterDelta accumulates the differences between pairs of snapshots
// taken around the traced parts of a workload.
type counterDelta struct {
	wall, cpu                       time.Duration
	matmulCalls, matmulNs, flops    int64
	im2colCalls, im2colNs           int64
	emulate, elements               int64
	fused, generic                  int64
	allocBytes, gcCycles, gcPauseNs uint64
}

func (d *counterDelta) add(a, b counters) {
	d.wall += b.wall.Sub(a.wall)
	d.cpu += b.cpu - a.cpu
	d.matmulCalls += b.tensor.MatMulCalls - a.tensor.MatMulCalls
	d.matmulNs += b.tensor.MatMulNanos - a.tensor.MatMulNanos
	d.flops += b.tensor.MatMulFLOPs - a.tensor.MatMulFLOPs
	d.im2colCalls += b.tensor.Im2ColCalls - a.tensor.Im2ColCalls
	d.im2colNs += b.tensor.Im2ColNanos - a.tensor.Im2ColNanos
	d.emulate += b.numfmt.Emulate - a.numfmt.Emulate
	d.elements += b.numfmt.Elements - a.numfmt.Elements
	d.fused += b.numfmt.FusedKernels - a.numfmt.FusedKernels
	d.generic += b.numfmt.GenericKernels - a.numfmt.GenericKernels
	if a.withMem && b.withMem {
		d.allocBytes += b.mem.TotalAlloc - a.mem.TotalAlloc
		d.gcCycles += uint64(b.mem.NumGC - a.mem.NumGC)
		d.gcPauseNs += b.mem.PauseTotalNs - a.mem.PauseTotalNs
	}
}

// metrics renders the tensor, numfmt and runtime per-layer metrics.
func (d *counterDelta) metrics(m map[string]float64) {
	cpu := d.cpu.Seconds()
	matmulS, im2colS := float64(d.matmulNs)/1e9, float64(d.im2colNs)/1e9
	m["tensor.matmul_calls"] = float64(d.matmulCalls)
	m["tensor.matmul_s"] = matmulS
	m["tensor.matmul_gflops"] = ratio(float64(d.flops)/1e9, matmulS)
	m["tensor.matmul_share"] = ratio(matmulS, cpu)
	m["tensor.im2col_calls"] = float64(d.im2colCalls)
	m["tensor.im2col_s"] = im2colS
	m["tensor.im2col_share"] = ratio(im2colS, cpu)
	m["numfmt.emulate_calls"] = float64(d.emulate)
	m["numfmt.elements"] = float64(d.elements)
	m["numfmt.fused_kernels"] = float64(d.fused)
	m["numfmt.generic_kernels"] = float64(d.generic)
	m["numfmt.bespoke_calls"] = float64(max(0, d.emulate-d.fused-d.generic))
	m["runtime.cpu_s"] = cpu
	m["runtime.cpu_util"] = ratio(cpu, d.wall.Seconds())
	m["runtime.alloc_mb"] = float64(d.allocBytes) / (1 << 20)
	m["runtime.gc_cycles"] = float64(d.gcCycles)
	m["runtime.gc_pause_s"] = float64(d.gcPauseNs) / 1e9
}
