package health

import (
	"math"
	rtm "runtime/metrics"

	"fidr/internal/metrics"
)

// Runtime bridging: the Go runtime already keeps the numbers that
// explain tail latency the workload counters can't — heap size, GC
// pause distribution, goroutine count, scheduler wakeup latency. This
// gatherer reads them with runtime/metrics at scrape time and renders
// them in the registry vocabulary (dotted names, counter/gauge/hist
// kinds), so they ride the same /metrics page, Prometheus exposition
// and sampler time series as the storage plane.
//
// Every series here is PROCESS-WIDE: one Go runtime serves all device
// groups, so these metrics must be mounted exactly once at the top of a
// composed view (metrics.Multi(clusterView, health.Runtime())), never
// inside the per-group registries that Merged sums — a cluster view
// that summed runtime.goroutines across N groups would report N× the
// truth. TestRuntimeGaugesSurfaceOncePerCluster pins this contract.

// runtimeSeries maps one runtime/metrics sample to a registry name.
type runtimeSeries struct {
	src  string // runtime/metrics key
	name string // registry name
	kind string // "counter" or "gauge" (scalars); histograms are implied
}

// runtimeScalars lists the bridged scalar series. Kinds mirror the
// runtime's own semantics: monotonic totals are counters, level
// readings are gauges.
var runtimeScalars = []runtimeSeries{
	{"/sched/goroutines:goroutines", "runtime.goroutines", "gauge"},
	{"/sched/gomaxprocs:threads", "runtime.gomaxprocs", "gauge"},
	{"/memory/classes/heap/objects:bytes", "runtime.heap_bytes", "gauge"},
	{"/memory/classes/total:bytes", "runtime.sys_bytes", "gauge"},
	{"/gc/heap/objects:objects", "runtime.heap_objects", "gauge"},
	{"/gc/heap/goal:bytes", "runtime.gc_goal_bytes", "gauge"},
	{"/gc/cycles/total:gc-cycles", "runtime.gc_cycles", "counter"},
}

// runtimeHists lists the bridged distribution series.
var runtimeHists = []runtimeSeries{
	{"/sched/pauses/total/gc:seconds", "runtime.gc_pause.ns", ""},
	{"/sched/latencies:seconds", "runtime.sched_latency.ns", ""},
}

// RuntimeCollector is a metrics.Gatherer over the Go runtime. Snapshot
// reads the runtime's own atomics (runtime/metrics.Read is designed for
// periodic sampling), so scrapes cost microseconds and never block the
// storage path.
type RuntimeCollector struct {
	samples []rtm.Sample
	scalars []runtimeSeries
	hists   []runtimeSeries
}

// Runtime builds the process-wide runtime collector. Series whose keys
// this Go version does not export are dropped silently, so the
// collector stays forward- and backward-compatible.
func Runtime() *RuntimeCollector {
	known := make(map[string]bool)
	for _, d := range rtm.All() {
		known[d.Name] = true
	}
	c := &RuntimeCollector{}
	for _, s := range runtimeScalars {
		if known[s.src] {
			c.scalars = append(c.scalars, s)
			c.samples = append(c.samples, rtm.Sample{Name: s.src})
		}
	}
	for _, s := range runtimeHists {
		if known[s.src] {
			c.hists = append(c.hists, s)
			c.samples = append(c.samples, rtm.Sample{Name: s.src})
		}
	}
	return c
}

// Snapshot implements metrics.Gatherer.
func (c *RuntimeCollector) Snapshot() []metrics.Metric {
	rtm.Read(c.samples)
	byName := make(map[string]rtm.Value, len(c.samples))
	for _, s := range c.samples {
		byName[s.Name] = s.Value
	}
	out := make([]metrics.Metric, 0, len(c.scalars)+len(c.hists))
	for _, s := range c.scalars {
		v, ok := scalarValue(byName[s.src])
		if !ok {
			continue
		}
		out = append(out, metrics.Metric{Kind: s.kind, Name: s.name, Value: v})
	}
	for _, s := range c.hists {
		v := byName[s.src]
		if v.Kind() != rtm.KindFloat64Histogram {
			continue
		}
		out = append(out, metrics.Metric{
			Kind: "hist", Name: s.name,
			Hist: bridgeHistogram(v.Float64Histogram(), 1e9),
		})
	}
	metrics.SortMetrics(out)
	return out
}

// scalarValue renders one runtime/metrics scalar as float64.
func scalarValue(v rtm.Value) (float64, bool) {
	switch v.Kind() {
	case rtm.KindUint64:
		return float64(v.Uint64()), true
	case rtm.KindFloat64:
		return v.Float64(), true
	default:
		return 0, false
	}
}

// bridgeHistogram converts a runtime/metrics float64 histogram (bucket
// boundaries in seconds) into a registry HistogramSnapshot with
// nanosecond bounds, matching the unit convention of every other ".ns"
// series. The runtime histogram carries no exact sum, so Sum/Mean are
// bucket-midpoint estimates — same error model as the registry's own
// log-linear quantiles. Infinite edge buckets are clamped to the
// registry histogram's own domain so the Prometheus expansion never
// emits a duplicate le="+Inf" series.
func bridgeHistogram(h *rtm.Float64Histogram, scale float64) metrics.HistogramSnapshot {
	var s metrics.HistogramSnapshot
	if h == nil {
		return s
	}
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := bucketEdge(h.Buckets, i, scale), bucketEdge(h.Buckets, i+1, scale)
		mid := (lo + hi) / 2
		s.Count += n
		s.Sum += mid * float64(n)
		if s.Buckets == nil || lo < s.Min {
			s.Min = lo
		}
		if hi > s.Max {
			s.Max = hi
		}
		s.Buckets = append(s.Buckets, metrics.BucketCount{Lower: lo, Upper: hi, Count: n})
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = s.Sum / float64(s.Count)
	s.FillQuantiles()
	return s
}

// bucketEdge returns boundary i of the runtime histogram scaled into
// registry units, clamping the infinite edges into the finite domain
// the registry histograms use (0 .. MaxUint64).
func bucketEdge(bounds []float64, i int, scale float64) float64 {
	b := bounds[i] * scale
	if math.IsInf(b, -1) || b < 0 {
		return 0
	}
	if math.IsInf(b, 1) || b > math.MaxUint64 {
		return float64(math.MaxUint64)
	}
	return b
}
