package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// ParseMetricsText is the inverse of WriteMetricsText, and the one
// decoder of the dump format: fidrcli stats and doctor reading a live
// /metrics scrape, and anything reading a snapshot-recorder metrics.txt,
// get the names, kinds and label blocks the daemon exported. Histogram
// lines carry only the summary statistics (count/mean/min/quantiles/
// max), so the returned snapshots have no buckets; that is all the dump
// format retains.
//
// Unknown line shapes are skipped rather than fatal: a dump from a
// newer daemon with an extra kind should degrade, not break the
// doctor. A series without a name, a label block that does not close
// before the value and a counter that is not a decimal uint64 are such
// shapes: the writer emits none of them.
func ParseMetricsText(text string) []Metric {
	var out []Metric
	for _, line := range strings.Split(text, "\n") {
		kind, rest := cutField(line)
		name, labels, rest, ok := lexNameToken(rest)
		fields := strings.Fields(rest)
		if !ok || len(fields) == 0 {
			continue
		}
		switch kind {
		case "counter":
			// What the writer prints: a uint64 in decimal.
			v, err := strconv.ParseUint(fields[0], 10, 64)
			if err != nil {
				continue
			}
			out = append(out, Metric{Kind: "counter", Name: name, Labels: labels, Value: float64(v)})
		case "gauge":
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				continue
			}
			out = append(out, Metric{Kind: "gauge", Name: name, Labels: labels, Value: v})
		case "hist":
			m := Metric{Kind: "hist", Name: name, Labels: labels}
			for _, kv := range fields {
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

// cutField takes the first white-space-separated field off s.
func cutField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// lexNameToken takes a dump line's name token off s: a name, then
// optionally a label block, `build_info{version="1.0 rc1"}` ->
// ("build_info", `version="1.0 rc1"`). A quoted label value may hold
// spaces and braces, so the block ends where lexBraceBlock says it does
// and not at the first space. Not ok: no name, an unterminated block,
// or a block that runs into the next field.
func lexNameToken(s string) (name, labels, rest string, ok bool) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	end := strings.IndexFunc(s, func(r rune) bool { return r == '{' || unicode.IsSpace(r) })
	if end <= 0 {
		return "", "", "", false
	}
	if name, rest = s[:end], s[end:]; rest[0] != '{' {
		return name, "", rest, true
	}
	labels, rest, err := lexBraceBlock(rest)
	return name, labels, rest, err == nil && (rest == "" || strings.TrimLeftFunc(rest, unicode.IsSpace) != rest)
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

// SumMetrics sums the values of every metric called name in any scope
// (see SplitScope) — e.g. SumMetrics(ms, "async.inflight") adds
// async.inflight, group0.async.inflight and group1.async.inflight in a
// cluster view. Histograms contribute their count.
func SumMetrics(ms []Metric, name string) (total float64, matches int) {
	for _, m := range ms {
		if _, base := SplitScope(m.Name); base != name {
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

// LabelPair quotes one label assignment for a Metric.Labels block.
func LabelPair(key, value string) string {
	return fmt.Sprintf("%s=%q", key, value)
}
