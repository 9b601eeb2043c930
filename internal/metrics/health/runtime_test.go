package health

import (
	"math"
	"strings"
	"testing"

	rtm "runtime/metrics"

	"fidr/internal/metrics"
)

// TestRuntimeSnapshotNames checks the bridge exports the core runtime
// series with the right kinds on this toolchain.
func TestRuntimeSnapshotNames(t *testing.T) {
	ms := Runtime().Snapshot()
	kinds := make(map[string]string, len(ms))
	for _, m := range ms {
		kinds[m.Name] = m.Kind
	}
	for name, kind := range map[string]string{
		"runtime.goroutines": "gauge",
		"runtime.heap_bytes": "gauge",
		"runtime.gc_cycles":  "counter",
	} {
		if kinds[name] != kind {
			t.Errorf("%s kind = %q, want %q (snapshot: %v)", name, kinds[name], kind, kinds)
		}
	}
	if g, ok := metrics.FindMetric(ms, "runtime.goroutines"); !ok || g.Value < 1 {
		t.Errorf("runtime.goroutines = %+v, want >= 1", g)
	}
	// The pause/latency histograms exist on go1.20+; require at least
	// the sched-latency one so a silently-empty bridge can't pass.
	if _, ok := metrics.FindMetric(ms, "runtime.sched_latency.ns"); !ok {
		t.Errorf("runtime.sched_latency.ns missing from snapshot")
	}
}

// TestBridgeHistogram feeds a synthetic runtime histogram (seconds,
// with infinite edge buckets) through the converter and checks unit
// scaling, clamping and the summary statistics.
func TestBridgeHistogram(t *testing.T) {
	h := &rtm.Float64Histogram{
		Counts:  []uint64{0, 10, 89, 1},
		Buckets: []float64{math.Inf(-1), 0.001, 0.002, 0.004, math.Inf(1)},
	}
	s := bridgeHistogram(h, 1e9)
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	// First bucket is empty and must be skipped entirely.
	if len(s.Buckets) != 3 {
		t.Fatalf("got %d buckets, want 3: %+v", len(s.Buckets), s.Buckets)
	}
	if s.Buckets[0].Lower != 1e6 || s.Buckets[0].Upper != 2e6 {
		t.Errorf("bucket0 = [%g, %g], want [1e6, 2e6] ns", s.Buckets[0].Lower, s.Buckets[0].Upper)
	}
	// +Inf upper is clamped into the registry domain, not emitted raw.
	last := s.Buckets[len(s.Buckets)-1]
	if math.IsInf(last.Upper, 1) {
		t.Errorf("infinite upper bound leaked into snapshot: %+v", last)
	}
	if s.Min != 1e6 {
		t.Errorf("Min = %g, want 1e6", s.Min)
	}
	// p50 and p90 land in the 2-4ms bucket (cumulative 10 then 99).
	if s.P50 != 3e6 || s.P90 != 3e6 {
		t.Errorf("P50, P90 = %g, %g, want 3e6, 3e6", s.P50, s.P90)
	}
	if s.P99 != 3e6 {
		t.Errorf("P99 = %g, want 3e6 (rank 99 in cumulative 99)", s.P99)
	}
	if s.Mean <= 0 || s.Sum <= 0 {
		t.Errorf("Mean/Sum not estimated: mean=%g sum=%g", s.Mean, s.Sum)
	}
}

// TestRuntimeGaugesSurfaceOncePerCluster pins the merge-semantics
// contract: a cluster view composed the documented way (Merged over
// group registries, runtime collector mounted once at the top) surfaces
// process-wide runtime gauges exactly once, while per-group series
// still merge. A composition that mounted the collector inside each
// group would fail the count here.
func TestRuntimeGaugesSurfaceOncePerCluster(t *testing.T) {
	g0, g1 := metrics.NewRegistry(), metrics.NewRegistry()
	g0.Counter("core.writes").Add(5)
	g1.Counter("core.writes").Add(7)

	view := metrics.Multi(
		metrics.Merged(g0, g1),
		metrics.Prefixed("group0.", g0),
		metrics.Prefixed("group1.", g1),
		Runtime(),
	)
	ms := view.Snapshot()

	count := func(name string) int {
		n := 0
		for _, m := range ms {
			if m.Name == name {
				n++
			}
		}
		return n
	}
	for _, name := range []string{"runtime.goroutines", "runtime.heap_bytes", "runtime.gc_cycles"} {
		if n := count(name); n != 1 {
			t.Errorf("%s surfaces %d times in the cluster view, want exactly 1", name, n)
		}
	}
	// And the per-group plane still works next to it.
	if _, total := metrics.SumMetrics(ms, "core.writes"); total != 3 {
		// merged unprefixed + two prefixed
		t.Errorf("core.writes series count = %d, want 3", total)
	}
	if v, ok := metrics.FindMetric(ms, "core.writes"); !ok || v.Value != 12 {
		t.Errorf("merged core.writes = %+v, want 12", v)
	}
}

// TestRuntimePromExposition runs the full Prometheus lexer over an
// exposition containing every runtime/metrics-derived name plus the
// labeled build_info gauge: dots sanitize, histograms expand with one
// +Inf bucket, and the page stays scrapable.
func TestRuntimePromExposition(t *testing.T) {
	view := metrics.Multi(Runtime(), BuildInfo("v1.2.3", "abcdef0"))
	text := metrics.DumpProm(view.Snapshot())
	if err := metrics.ValidatePromText(strings.NewReader(text)); err != nil {
		t.Fatalf("runtime-derived exposition failed to lex: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# TYPE runtime_goroutines gauge",
		"# TYPE runtime_gc_cycles counter",
		"build_info{",
		`go_version="go`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "runtime_sched_latency_ns_bucket{le=\"+Inf\"}") > 1 {
		t.Errorf("duplicate +Inf bucket in sched latency expansion:\n%s", text)
	}
}

// TestBuildInfoDumpRoundTrip checks the labeled gauge renders through
// the plain-text dump and parses back with labels intact — a version
// may be any string -ldflags can stamp, one with a space included.
func TestBuildInfoDumpRoundTrip(t *testing.T) {
	ms := BuildInfo("v9 rc1", "deadbeef").Snapshot()
	text := metrics.DumpMetrics(ms)
	if !strings.Contains(text, `gauge build_info{version="v9 rc1",commit="deadbeef",go_version=`) {
		t.Fatalf("dump rendering = %q", text)
	}
	parsed := metrics.ParseMetricsText(text)
	m, ok := metrics.FindMetric(parsed, "build_info")
	if !ok || m.Value != 1 {
		t.Fatalf("parsed build_info = %+v, ok=%v", m, ok)
	}
	if m.Labels != ms[0].Labels {
		t.Errorf("parsed labels = %s, written %s", m.Labels, ms[0].Labels)
	}
}
