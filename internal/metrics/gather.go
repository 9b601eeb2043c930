package metrics

import (
	"sort"
	"strconv"
	"strings"
)

// Gatherer is anything that can produce a point-in-time metric set.
// Registry implements it directly; Prefixed, Multi, GathererFunc and
// Merged compose registries into cluster-wide views, so one HTTP
// endpoint can expose per-group, merged and derived series together.
type Gatherer interface {
	Snapshot() []Metric
}

// GathererFunc adapts a function to the Gatherer interface (used for
// derived gauges computed at scrape time from other atomics).
type GathererFunc func() []Metric

// Snapshot implements Gatherer.
func (f GathererFunc) Snapshot() []Metric { return f() }

// Prefixed exposes a gatherer's metrics under a name prefix
// ("group0." + "core.writes" -> "group0.core.writes").
func Prefixed(prefix string, g Gatherer) Gatherer {
	return GathererFunc(func() []Metric {
		ms := g.Snapshot()
		out := make([]Metric, len(ms))
		for i, m := range ms {
			m.Name = prefix + m.Name
			out[i] = m
		}
		return out
	})
}

// GroupPrefix is the prefix a cluster view puts on group i's series
// ("group3."); SplitScope is its inverse. Nothing else spells the
// convention.
func GroupPrefix(i int) string { return "group" + strconv.Itoa(i) + "." }

// SplitScope splits a series name into the group scope GroupPrefix gave
// it ("group3", without the dot) and the name the group's own registry
// uses. A merged or node-wide series has no scope: ("", name).
func SplitScope(name string) (scope, base string) {
	rest, ok := strings.CutPrefix(name, "group")
	if !ok {
		return "", name
	}
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	if n == 0 || n == len(rest) || rest[n] != '.' {
		return "", name
	}
	return name[:len("group")+n], rest[n+1:]
}

// Multi concatenates gatherers into one deterministic view: the combined
// snapshot is re-sorted (counters, then gauges, then histograms, each by
// name), so dump ordering is stable regardless of composition order.
func Multi(gs ...Gatherer) Gatherer {
	return GathererFunc(func() []Metric {
		var out []Metric
		for _, g := range gs {
			out = append(out, g.Snapshot()...)
		}
		SortMetrics(out)
		return out
	})
}

// Merged sums the gatherers' same-named series into one unprefixed view:
// counters and gauges add, histograms merge bucket-wise. This is the
// cluster-wide aggregate over per-group registries.
func Merged(gs ...Gatherer) Gatherer {
	return GathererFunc(func() []Metric {
		snaps := make([][]Metric, len(gs))
		for i, g := range gs {
			snaps[i] = g.Snapshot()
		}
		return MergeMetrics(snaps...)
	})
}

// kindRank orders metric kinds the way Registry.Snapshot does.
func kindRank(kind string) int {
	switch kind {
	case "counter":
		return 0
	case "gauge":
		return 1
	default:
		return 2
	}
}

// SortMetrics sorts in place into the canonical dump order: counters,
// then gauges, then histograms, each group sorted by name.
func SortMetrics(ms []Metric) {
	sort.SliceStable(ms, func(i, j int) bool {
		if a, b := kindRank(ms[i].Kind), kindRank(ms[j].Kind); a != b {
			return a < b
		}
		return ms[i].Name < ms[j].Name
	})
}

// MergeMetrics folds metric snapshots by name: counters and gauges sum,
// histograms merge bucket-wise. The result is in canonical sorted order.
func MergeMetrics(snaps ...[]Metric) []Metric {
	merged := make(map[string]Metric)
	for _, snap := range snaps {
		for _, m := range snap {
			prev, ok := merged[m.Name]
			if !ok {
				merged[m.Name] = m
				continue
			}
			switch m.Kind {
			case "hist":
				prev.Hist = MergeHistogramSnapshots(prev.Hist, m.Hist)
			default:
				prev.Value += m.Value
			}
			merged[m.Name] = prev
		}
	}
	out := make([]Metric, 0, len(merged))
	for _, m := range merged {
		out = append(out, m)
	}
	SortMetrics(out)
	return out
}
