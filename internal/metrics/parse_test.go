package metrics

import (
	"testing"
)

// The two table tests' inputs, which also seed FuzzParseMetricsText.
var roundTripSet = []Metric{
	{Kind: "counter", Name: "core.writes", Value: 42},
	{Kind: "counter", Name: "group0.core.writes", Value: 30},
	{Kind: "counter", Name: "group1.core.writes", Value: 12},
	{Kind: "gauge", Name: "async.inflight", Value: 3},
	{Kind: "gauge", Name: "build_info",
		Labels: LabelPair("version", "v1.2") + "," + LabelPair("commit", "abc123"), Value: 1},
	{Kind: "hist", Name: "wal.fsync_ns", Hist: HistogramSnapshot{
		Count: 10, Mean: 5, Min: 1, P50: 4, P90: 8, P99: 9, Max: 12}},
}

const garbageDump = "counter a.b 1\n" +
	"# a comment\n" +
	"summary weird 5\n" +
	"gauge\n" +
	"gauge c.d nan-ish\n" +
	"\n" +
	"gauge c.d 2\n"

// TestParseMetricsTextRoundTrip dumps a mixed metric set — including a
// labeled gauge and a cluster-style group prefix — and parses it back:
// the inverse the fidrcli doctor relies on to diagnose a live daemon
// from its /metrics page.
func TestParseMetricsTextRoundTrip(t *testing.T) {
	in := roundTripSet
	out := ParseMetricsText(DumpMetrics(in))
	if len(out) != len(in) {
		t.Fatalf("parsed %d metrics from %d (out=%+v)", len(out), len(in), out)
	}

	if m, ok := FindMetric(out, "core.writes"); !ok || m.Value != 42 || m.Kind != "counter" {
		t.Errorf("core.writes = %+v, ok=%v", m, ok)
	}
	if m, ok := FindMetric(out, "wal.fsync_ns"); !ok || m.Hist.Count != 10 || m.Hist.P99 != 9 {
		t.Errorf("wal.fsync_ns = %+v, ok=%v", m, ok)
	}

	// SumMetrics folds group-prefixed series into the cluster total.
	if total, n := SumMetrics(out, "async.inflight"); total != 3 || n != 1 {
		t.Errorf("SumMetrics(async.inflight) = %v over %d", total, n)
	}
	if total, n := SumMetrics(out, "core.writes"); total != 84 || n != 3 {
		t.Errorf("SumMetrics(core.writes) = %v over %d, want 84 over 3 (merged + 2 groups)", total, n)
	}

	// Labels survive the dump format and unquote cleanly.
	m, ok := FindMetric(out, "build_info")
	if !ok || m.Value != 1 {
		t.Fatalf("build_info = %+v, ok=%v", m, ok)
	}
	labels := ParseLabels(m.Labels)
	if labels["version"] != "v1.2" || labels["commit"] != "abc123" {
		t.Errorf("build_info labels = %v", labels)
	}
}

// TestParseMetricsTextSkipsGarbage checks unknown kinds, short lines
// and prose pass through silently — the parser must tolerate a dump
// page that grows new line types.
func TestParseMetricsTextSkipsGarbage(t *testing.T) {
	out := ParseMetricsText(garbageDump)
	if len(out) != 2 {
		t.Fatalf("parsed %+v, want just a.b and c.d", out)
	}
}
