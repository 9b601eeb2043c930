package metrics

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseMetricsText is the inverse of WriteMetricsText: it parses the
// plain-text dump format back into a metric set so offline consumers —
// fidrcli doctor reading a live /metrics scrape or a snapshot-recorder
// metrics.txt — can run checks against the same names and kinds the
// daemon exported. Histogram lines carry only the summary statistics
// (count/mean/min/quantiles/max), so the returned snapshots have no
// buckets; that is all the dump format retains.
//
// Unknown line shapes are skipped rather than fatal: a dump from a
// newer daemon with an extra kind should degrade, not break the
// doctor. A series without a name and a counter that is not a decimal
// uint64 are such shapes: the writer emits neither.
func ParseMetricsText(text string) []Metric {
	var out []Metric
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name, labels := splitNameLabels(fields[1])
		if name == "" {
			continue
		}
		switch fields[0] {
		case "counter":
			// What the writer prints: a uint64 in decimal.
			v, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				continue
			}
			out = append(out, Metric{Kind: "counter", Name: name, Labels: labels, Value: float64(v)})
		case "gauge":
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				continue
			}
			out = append(out, Metric{Kind: "gauge", Name: name, Labels: labels, Value: v})
		case "hist":
			m := Metric{Kind: "hist", Name: name, Labels: labels}
			for _, kv := range fields[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					continue
				}
				if k == "count" {
					if n, err := strconv.ParseUint(v, 10, 64); err == nil {
						m.Hist.Count = n
					}
					continue
				}
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					continue
				}
				switch k {
				case "mean":
					m.Hist.Mean = f
				case "min":
					m.Hist.Min = f
				case "p50":
					m.Hist.P50 = f
				case "p90":
					m.Hist.P90 = f
				case "p99":
					m.Hist.P99 = f
				case "max":
					m.Hist.Max = f
				}
			}
			out = append(out, m)
		}
	}
	return out
}

// splitNameLabels splits a dump-format name token back into name and
// label block: `build_info{version="v1"}` -> ("build_info",
// `version="v1"`).
func splitNameLabels(tok string) (name, labels string) {
	i := strings.IndexByte(tok, '{')
	if i < 0 || !strings.HasSuffix(tok, "}") {
		return tok, ""
	}
	return tok[:i], tok[i+1 : len(tok)-1]
}

// FindMetric returns the first metric with the given name.
func FindMetric(ms []Metric, name string) (Metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// SumMetrics sums the values of every metric whose name matches the
// given suffix or exact name — e.g. SumMetrics(ms, "async.inflight")
// adds group0.async.inflight and group1.async.inflight in a cluster
// view. Histograms contribute their count.
func SumMetrics(ms []Metric, name string) (total float64, matches int) {
	for _, m := range ms {
		if m.Name != name && !strings.HasSuffix(m.Name, "."+name) {
			continue
		}
		matches++
		if m.Kind == "hist" {
			total += float64(m.Hist.Count)
			continue
		}
		total += m.Value
	}
	return total, matches
}

// ParseLabels splits a pre-rendered label block into key/value pairs:
// `version="v1",commit="abc"` -> {version: v1, commit: abc}. Malformed
// entries are skipped.
func ParseLabels(labels string) map[string]string {
	out := make(map[string]string)
	for _, part := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		uq, err := strconv.Unquote(v)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(k)] = uq
	}
	return out
}

// LabelPair quotes one label assignment for a Metric.Labels block.
func LabelPair(key, value string) string {
	return fmt.Sprintf("%s=%q", key, value)
}
