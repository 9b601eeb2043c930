package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), stdlib only.
// Counters and gauges map directly; histograms expand to the
// conventional cumulative series:
//
//	<name>_bucket{le="<upper>"} <cumulative count>
//	<name>_bucket{le="+Inf"}    <total count>
//	<name>_sum                  <sum of observations>
//	<name>_count                <total count>
//
// Metric names are sanitized for Prometheus (dots and other invalid
// runes become underscores), so "group0.core.writes" exposes as
// "group0_core_writes" while the dotted name stays canonical everywhere
// else in the system.

// PromName sanitizes a dotted metric name into a valid Prometheus
// metric name.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value the way Prometheus expects.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm renders a metric set in Prometheus text exposition format.
// The input should be canonically sorted (Registry.Snapshot, Multi and
// MergeMetrics all are) so output is deterministic.
//
// Hostile registry keys cannot break the exposition: every invalid rune
// is escaped by PromName, a name that sanitizes to nothing is dropped,
// and when two distinct dotted names collide after sanitization (e.g.
// "a.b" and "a_b") only the first is emitted — a duplicate series would
// make the whole page unscrapable.
func WriteProm(w io.Writer, ms []Metric) error {
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		name := PromName(m.Name)
		// Labeled scalars (build_info) dedup on name+labels: the same
		// name with distinct label sets is distinct series, but they must
		// still share one TYPE line, emitted for the first occurrence.
		sample := name
		if m.Labels != "" && m.Kind != "hist" {
			sample = name + "{" + m.Labels + "}"
		}
		if name == "" || seen[sample] {
			continue
		}
		if m.Kind == "hist" && (seen[name+"_bucket"] || seen[name+"_sum"] || seen[name+"_count"]) {
			continue
		}
		typeLine := !seen[name]
		seen[name], seen[sample] = true, true
		if m.Kind == "hist" {
			// Reserve the expanded series names too, so a later scalar
			// named e.g. "<name>_count" cannot duplicate them.
			seen[name+"_bucket"], seen[name+"_sum"], seen[name+"_count"] = true, true, true
		}
		var err error
		switch m.Kind {
		case "counter":
			err = writePromScalar(w, "counter", name, sample, m.Value, typeLine)
		case "gauge":
			err = writePromScalar(w, "gauge", name, sample, m.Value, typeLine)
		case "hist":
			err = writePromHistogram(w, name, m.Hist)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromScalar emits one counter or gauge sample, preceded by its
// TYPE line the first time the name appears.
func writePromScalar(w io.Writer, kind, name, sample string, v float64, typeLine bool) error {
	if typeLine {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s %s\n", sample, promFloat(v))
	return err
}

// writePromHistogram expands one histogram snapshot. Cumulative bucket
// counts come from the snapshot's own buckets, so _count always equals
// the +Inf bucket even if the source histogram is being written
// concurrently.
func writePromHistogram(w io.Writer, name string, h HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(b.Upper), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, cum, name, promFloat(h.Sum), name, cum)
	return err
}

// DumpProm returns the Prometheus text rendering of a metric set.
func DumpProm(ms []Metric) string {
	var b strings.Builder
	WriteProm(&b, ms)
	return b.String()
}
