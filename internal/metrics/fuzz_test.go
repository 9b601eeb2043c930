package metrics

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseObjectives: no -slo-spec may panic the parser, and whatever
// it accepts is something the SLO plane can evaluate — a positive
// threshold, a target strictly inside (0, 1), non-empty names that are
// unique (each owns its slo.<name>.* gauges) — says the same thing when
// written back as a spec, and publishes gauges whose names survive the
// dump: what Instrument registers is what ParseMetricsText reads back.
//
// CI runs this bounded (make fuzz).
func FuzzParseObjectives(f *testing.F) {
	f.Add(goodObjectiveSpec)
	f.Add("a:h:1h0m0.5s:1e-3,,b:h:1ns:1.5")
	for _, bad := range badObjectiveSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseObjectives(spec)
		if err != nil {
			return
		}
		if len(objs) == 0 {
			t.Fatal("accepted a spec with no objectives")
		}
		names := make(map[string]bool)
		parts := make([]string, len(objs))
		for i, o := range objs {
			if o.Name == "" || o.Hist == "" || names[o.Name] {
				t.Fatalf("objective %d of %q: name %q hist %q (empty or repeated)", i, spec, o.Name, o.Hist)
			}
			names[o.Name] = true
			if o.Threshold <= 0 || !(o.Target > 0 && o.Target < 1) {
				t.Fatalf("objective %d of %q: threshold %v target %v", i, spec, o.Threshold, o.Target)
			}
			parts[i] = o.Name + ":" + o.Hist + ":" + o.Threshold.String() + ":" +
				strconv.FormatFloat(o.Target, 'g', -1, 64)
		}
		again, err := ParseObjectives(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, objs) {
			t.Fatalf("%q parsed to %+v; rendered back it parses to %+v (%v)", spec, objs, again, err)
		}
		reg := NewRegistry()
		NewSLO(reg, objs, 1).Instrument(reg)
		gauges := reg.Snapshot()
		dumped := ParseMetricsText(DumpMetrics(gauges))
		if len(dumped) != len(gauges) {
			t.Fatalf("%q publishes %d gauges, the dump carries %d:\n%s", spec, len(gauges), len(dumped), DumpMetrics(gauges))
		}
		for i, m := range gauges {
			if dumped[i].Name != m.Name {
				t.Fatalf("%q: gauge %q reads back as %q", spec, m.Name, dumped[i].Name)
			}
		}
	})
}

// FuzzParseMetricsText: the dump parser reads a live /metrics scrape and
// a recorder bundle's metrics.txt from disk, so no text may panic it,
// and what it keeps must survive the writer: dumping the parsed set and
// parsing that again yields the same series (kind, name, labels, in
// order) and a dump that is byte for byte the first one. The comparison
// is on the text because the format keeps three decimals — a parsed
// 0.12345 is 0.123 from the first dump on.
//
// CI runs this bounded (make fuzz).
func FuzzParseMetricsText(f *testing.F) {
	f.Add(DumpMetrics(roundTripSet))
	f.Add(garbageDump)
	f.Add("counter a -5\ncounter b 1.5\ncounter {} 1\ngauge g 0.12345\ngauge n NaN\ngauge h{x} -0.0001\n")
	f.Add("hist h{l=\"v\"} count=18446744073709551615 mean=1e300 min=-Inf junk p50=0x1p-2 count=1.5\nhist h b\n")
	f.Fuzz(func(t *testing.T, text string) {
		first := ParseMetricsText(text)
		dump := DumpMetrics(first)
		second := ParseMetricsText(dump)
		if len(second) != len(first) {
			t.Fatalf("%d series parsed, %d after a dump:\n%s", len(first), len(second), dump)
		}
		for i, m := range first {
			if g := second[i]; g.Kind != m.Kind || g.Name != m.Name || g.Labels != m.Labels {
				t.Fatalf("series %d: %s %q{%s} came back as %s %q{%s}", i, m.Kind, m.Name, m.Labels, g.Kind, g.Name, g.Labels)
			}
		}
		if again := DumpMetrics(second); again != dump {
			t.Fatalf("dump is not a fixed point:\n%s\nthen:\n%s", dump, again)
		}
	})
}
