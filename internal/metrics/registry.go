package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Gauge is a concurrent-safe float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a concurrent-safe namespace of named counters, gauges and
// histograms. Accessors are get-or-create: the first call for a name
// allocates the metric, later calls return the same instance, so
// producers can bind metrics once at startup and update them lock-free
// on hot paths. A component that owns its counters attaches them
// (AttachCounter / AttachGauge); functions of other counters are computed
// at snapshot time (AttachDerived). Names are dotted lowercase.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	derived  []func(emit func(name string, v uint64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// AttachCounter publishes an existing counter under name: the series is
// the owner's instance, so it includes what was counted before the call.
// One instance may have several names; a name in use is replaced.
func (r *Registry) AttachCounter(name string, c *Counter) {
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// AttachGauge is AttachCounter for a gauge.
func (r *Registry) AttachGauge(name string, g *Gauge) {
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
}

// AttachDerived publishes counter-kind series computed when the registry
// is read (totals over a family, or a family that grows with traffic): f
// emits each (name, value) and must not call back into the registry.
func (r *Registry) AttachDerived(f func(emit func(name string, v uint64))) {
	r.mu.Lock()
	r.derived = append(r.derived, f)
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return getOrCreate(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return getOrCreate(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return getOrCreate(r, r.hists, name, NewHistogram)
}

func getOrCreate[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Metric is one registry entry's point-in-time value.
type Metric struct {
	// Kind is "counter", "gauge" or "hist".
	Kind string
	Name string
	// Labels is an optional pre-rendered Prometheus label block without
	// braces, e.g. `version="v1",commit="abc"`. Registry metrics never
	// carry labels (the dotted-name convention encodes dimensions);
	// info-style gatherers such as build_info use it. Text renderings
	// append it to the name as name{labels}, and series with different
	// label sets are distinct.
	Labels string
	// Value holds counter and gauge readings.
	Value float64
	// Hist holds histogram readings (Kind "hist" only).
	Hist HistogramSnapshot
}

// FullName renders the dump-format name token: name{labels} when labels
// are present. A quoted label value may hold spaces; ParseMetricsText
// lexes the block, it does not split on them.
func (m Metric) FullName() string {
	if m.Labels == "" {
		return m.Name
	}
	return m.Name + "{" + m.Labels + "}"
}

// ValueText renders a counter's or a gauge's reading the way the dump
// prints it: a counter as a decimal uint64, a gauge through FormatFloat.
func (m Metric) ValueText() string {
	if m.Kind == "counter" {
		return strconv.FormatUint(uint64(m.Value), 10)
	}
	return FormatFloat(m.Value)
}

// Snapshot captures every metric, counters first, then gauges, then
// histograms, each group sorted by name.
func (r *Registry) Snapshot() []Metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.derived))
	emit := func(name string, v uint64) {
		out = append(out, Metric{Kind: "counter", Name: name, Value: float64(v)})
	}
	for _, f := range r.derived {
		f(emit)
	}
	for name, c := range r.counters {
		emit(name, c.Value())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for _, name := range sortedKeys(r.gauges) {
		out = append(out, Metric{Kind: "gauge", Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range sortedKeys(r.hists) {
		out = append(out, Metric{Kind: "hist", Name: name, Hist: r.hists[name].Snapshot()})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders the registry in the plain-text dump format, one
// metric per line:
//
//	counter core.writes 640
//	gauge core.reduction_ratio 0.413
//	hist stage.hash.ns count=640 mean=1523.4 min=900 p50=1487 p90=2200 p99=2901 max=51200
//
// The format is stable and machine-parseable (fidrcli stats re-renders
// it as tables).
func (r *Registry) WriteText(w io.Writer) error {
	return WriteMetricsText(w, r.Snapshot())
}

// WriteMetricsText renders any metric set (a single registry's or a
// composed cluster view's) in the plain-text dump format. Callers that
// compose gatherers should pass a canonically sorted set (Multi and
// MergeMetrics sort; see SortMetrics) so the dump is deterministic.
func WriteMetricsText(w io.Writer, ms []Metric) error {
	for _, m := range ms {
		var err error
		switch m.Kind {
		case "hist":
			h := m.Hist
			_, err = fmt.Fprintf(w, "hist %s count=%d mean=%s min=%s p50=%s p90=%s p99=%s max=%s\n",
				m.FullName(), h.Count, FormatFloat(h.Mean), FormatFloat(h.Min),
				FormatFloat(h.P50), FormatFloat(h.P90), FormatFloat(h.P99), FormatFloat(h.Max))
		case "counter":
			_, err = fmt.Fprintf(w, "counter %s %s\n", m.FullName(), m.ValueText())
		default:
			_, err = fmt.Fprintf(w, "gauge %s %s\n", m.FullName(), m.ValueText())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Dump returns the plain-text rendering of WriteText.
func (r *Registry) Dump() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// DumpMetrics returns the plain-text rendering of a metric set.
func DumpMetrics(ms []Metric) string {
	var b strings.Builder
	WriteMetricsText(&b, ms)
	return b.String()
}
