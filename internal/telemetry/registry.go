package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a named collection of metrics with get-or-create semantics.
// Metric lookup is a lock-free sync.Map read after first creation, so
// fetching a metric inside a hot loop is acceptable (though callers on the
// hottest paths should still cache the returned pointer).
type Registry struct {
	counters sync.Map // name → *Counter
	gauges   sync.Map // name → *Gauge
	hists    sync.Map // name → *Histogram

	mu         sync.Mutex
	collectors []Collector
}

// Collector is a callback that contributes externally maintained values
// (e.g. package-level atomic counters in internal/tensor or
// internal/numfmt) to a registry snapshot. It is invoked at exposition
// time with a set function; each set call adds one gauge-typed sample to
// the snapshot, overwriting any earlier sample of the same name.
type Collector func(set func(name string, value float64))

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// defaultRegistry is the process-wide registry returned by Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, which the cmd front-ends use
// so that instrumentation from every layer lands in one exposition.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, &Counter{})
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, &Gauge{})
	return v.(*Gauge)
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later calls return the existing histogram regardless of
// bounds, so every call site for one name should pass the same layout.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if v, ok := r.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := r.hists.LoadOrStore(name, NewHistogram(bounds))
	return v.(*Histogram)
}

// RegisterCollector adds a snapshot-time value source. Collectors run in
// registration order on every Snapshot/WritePrometheus/WriteJSON call.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// MetricKind distinguishes snapshot entries.
type MetricKind int

// Snapshot metric kinds.
const (
	KindCounter MetricKind = iota + 1
	KindGauge
	KindHistogram
)

// Metric is one snapshot entry. Value is set for counters and gauges;
// Buckets/Sum/Count for histograms.
type Metric struct {
	Name    string
	Kind    MetricKind
	Value   float64
	Buckets []Bucket
	Sum     float64
	Count   int64
}

// Snapshot returns every metric (including collector-contributed gauges),
// sorted by name for deterministic exposition.
func (r *Registry) Snapshot() []Metric {
	var out []Metric
	r.counters.Range(func(k, v any) bool {
		out = append(out, Metric{Name: k.(string), Kind: KindCounter, Value: float64(v.(*Counter).Value())})
		return true
	})
	r.gauges.Range(func(k, v any) bool {
		out = append(out, Metric{Name: k.(string), Kind: KindGauge, Value: v.(*Gauge).Value()})
		return true
	})
	r.hists.Range(func(k, v any) bool {
		h := v.(*Histogram)
		out = append(out, Metric{Name: k.(string), Kind: KindHistogram, Buckets: h.Buckets(), Sum: h.Sum(), Count: h.Count()})
		return true
	})
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()
	collected := make(map[string]float64)
	for _, c := range collectors {
		c(func(name string, value float64) { collected[name] = value })
	}
	for name, value := range collected {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Label returns name with the given label pairs appended in Prometheus
// syntax: Label("x_total", "worker", "3") == `x_total{worker="3"}`. Pairs
// append to an existing label block. Values are quoted verbatim; callers
// must not pass values containing `"` or `\`.
func Label(name string, kv ...string) string {
	if len(kv) == 0 || len(kv)%2 != 0 {
		panic("telemetry: Label requires an even number of key/value strings")
	}
	var pairs []string
	base := name
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		base = name[:i]
		if inner := name[i+1 : len(name)-1]; inner != "" {
			pairs = append(pairs, inner)
		}
	}
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	return base + "{" + strings.Join(pairs, ",") + "}"
}

// splitName separates a metric name into its base and the inner label
// block ("" when unlabeled): `x{a="b"}` → (`x`, `a="b"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// formatValue renders a float the way Prometheus text exposition expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric base name, counters
// and gauges as single samples, histograms as cumulative _bucket/_sum/
// _count series with an `le` label.
func (r *Registry) WritePrometheus(w io.Writer) error {
	typed := make(map[string]bool)
	writeType := func(base, kind string) error {
		if typed[base] {
			return nil
		}
		typed[base] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	for _, m := range r.Snapshot() {
		base, labels := splitName(m.Name)
		switch m.Kind {
		case KindCounter, KindGauge:
			kind := "counter"
			if m.Kind == KindGauge {
				kind = "gauge"
			}
			if err := writeType(base, kind); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", m.Name, formatValue(m.Value)); err != nil {
				return err
			}
		case KindHistogram:
			if err := writeType(base, "histogram"); err != nil {
				return err
			}
			cum := int64(0)
			for _, b := range m.Buckets {
				cum += b.Count
				lb := `le="` + formatValue(b.UpperBound) + `"`
				if labels != "" {
					lb = labels + "," + lb
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, lb, cum); err != nil {
					return err
				}
			}
			suffix := ""
			if labels != "" {
				suffix = "{" + labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, formatValue(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, m.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// MergeExposition rewrites a Prometheus text exposition concatenated from
// several sources (a server's registry, then other processes' scrapes) so
// that every metric family forms one contiguous group, as the text format
// requires. Families keep their first-seen order and samples their order
// within a family; a family's first # HELP and # TYPE lines lead it and
// later copies are dropped. _bucket/_sum/_count samples join the
// histogram or summary family their base name was typed as. Other comment
// lines move to the end.
func MergeExposition(w io.Writer, text []byte) error {
	type family struct{ meta, samples []string }
	var (
		order    []string
		families = make(map[string]*family)
		kinds    = make(map[string]string) // family -> its # TYPE kind
		seen     = make(map[string]bool)   // "TYPE name", "HELP name"
		notes    []string
	)
	get := func(name string) *family {
		f := families[name]
		if f == nil {
			f = &family{}
			families[name] = f
			order = append(order, name)
		}
		return f
	}
	for _, line := range strings.Split(string(text), "\n") {
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		if fields := strings.Fields(line); fields[0] == "#" {
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				notes = append(notes, line)
				continue
			}
			f := get(fields[2])
			if key := fields[1] + " " + fields[2]; !seen[key] {
				seen[key] = true
				f.meta = append(f.meta, line)
				if fields[1] == "TYPE" && len(fields) > 3 {
					kinds[fields[2]] = fields[3]
				}
			}
			continue
		}
		name := line[:strings.IndexAny(line+" ", "{ \t")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && (kinds[base] == "histogram" || kinds[base] == "summary") {
				name = base
			}
		}
		f := get(name)
		f.samples = append(f.samples, line)
	}
	var b strings.Builder
	for _, name := range order {
		f := families[name]
		for _, l := range append(f.meta, f.samples...) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	for _, l := range notes {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonHistogram mirrors Metric's histogram fields for JSON exposition.
type jsonHistogram struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []jsonBucket `json:"buckets"`
}

type jsonBucket struct {
	LE    string `json:"le"` // upper bound; "+Inf" for the overflow bucket
	Count int64  `json:"count"`
}

// WriteJSON renders the registry as a single JSON object with "counters",
// "gauges", and "histograms" maps, keyed by full metric name (labels
// included). Bucket counts are non-cumulative, unlike the Prometheus text
// form.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := struct {
		Counters   map[string]int64         `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]jsonHistogram `json:"histograms"`
	}{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]jsonHistogram),
	}
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case KindCounter:
			doc.Counters[m.Name] = int64(m.Value)
		case KindGauge:
			doc.Gauges[m.Name] = m.Value
		case KindHistogram:
			jh := jsonHistogram{Count: m.Count, Sum: m.Sum}
			for _, b := range m.Buckets {
				jh.Buckets = append(jh.Buckets, jsonBucket{LE: formatValue(b.UpperBound), Count: b.Count})
			}
			doc.Histograms[m.Name] = jh
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
