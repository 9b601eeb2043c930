package metrics

import (
	"math/rand"
	"strings"
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

	// Labels survive the dump format as the block that was written.
	m, ok := FindMetric(out, "build_info")
	if !ok || m.Value != 1 {
		t.Fatalf("build_info = %+v, ok=%v", m, ok)
	}
	if m.Labels != `version="v1.2",commit="abc123"` {
		t.Errorf("build_info labels = %s", m.Labels)
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

// TestDumpRoundTripFromWriter is the writer's side of the dump grammar:
// any series the daemon can publish — a name in the registry's alphabet,
// label values of any bytes at all — reads back as the same series in
// the same order, and dumps again to the same bytes. Parsing first
// (FuzzParseMetricsText) cannot see a line the parser drops whole, which
// is what happened to a label value with a space in it.
func TestDumpRoundTripFromWriter(t *testing.T) {
	const alphabet = "abcXYZ019_.-"
	rng := rand.New(rand.NewSource(1))
	name := func() string {
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	value := func() string {
		b := make([]byte, rng.Intn(10))
		for i := range b {
			b[i] = " \t\"\\{}=,\n#a\xff"[rng.Intn(12)]
		}
		return string(b)
	}
	sets := [][]Metric{{
		{Kind: "gauge", Name: "build_info", Labels: LabelPair("version", "1.0 rc1") + "," + LabelPair("commit", "abc"), Value: 1},
		{Kind: "gauge", Name: "slo.my-obj.budget_remaining", Value: 0.5},
	}}
	for len(sets) < 200 {
		var ms []Metric
		for i := rng.Intn(6); i >= 0; i-- {
			m := Metric{Kind: []string{"counter", "gauge", "hist"}[rng.Intn(3)], Name: name(), Value: float64(rng.Intn(1 << 20))}
			for j := rng.Intn(3); j > 0; j-- {
				m.Labels += LabelPair(name(), value()) + ","
			}
			m.Labels = strings.TrimSuffix(m.Labels, ",")
			ms = append(ms, m)
		}
		sets = append(sets, ms)
	}
	for _, ms := range sets {
		dump := DumpMetrics(ms)
		back := ParseMetricsText(dump)
		if len(back) != len(ms) {
			t.Fatalf("%d series written, %d read back:\n%s", len(ms), len(back), dump)
		}
		for i, m := range ms {
			if g := back[i]; g.Kind != m.Kind || g.Name != m.Name || g.Labels != m.Labels {
				t.Fatalf("series %d: %s %q{%s} read back as %s %q{%s}", i, m.Kind, m.Name, m.Labels, g.Kind, g.Name, g.Labels)
			}
		}
		if again := DumpMetrics(back); again != dump {
			t.Fatalf("second dump differs:\n%s\nthen:\n%s", dump, again)
		}
	}
}

// TestSplitScope: GroupPrefix writes the scope, SplitScope reads it, and
// a name that merely starts like one is left whole.
func TestSplitScope(t *testing.T) {
	for _, i := range []int{0, 9, 10, 63} {
		if scope, base := SplitScope(GroupPrefix(i) + "core.writes"); scope+"." != GroupPrefix(i) || base != "core.writes" {
			t.Errorf("SplitScope(%q) = %q, %q", GroupPrefix(i)+"core.writes", scope, base)
		}
	}
	for _, whole := range []string{"core.writes", "group.core", "groups.core", "group1", "group1x.core", "xgroup1.core", ""} {
		if scope, base := SplitScope(whole); scope != "" || base != whole {
			t.Errorf("SplitScope(%q) = %q, %q, want it whole", whole, scope, base)
		}
	}
}
