package fidr

import (
	"math"

	"fidr/internal/core"
	"fidr/internal/metrics"
)

// Cluster-wide observability. A Server's metrics plane covers one group;
// the scale-out claims of §5.6 need per-shard visibility. Each
// group gets its own metrics.Registry, exposed three ways through one
// Gatherer: merged cluster-wide series (unprefixed, counters summed and
// histograms bucket-merged), per-group series under a "group<N>."
// prefix, and cluster-level derived series — per-shard write share and
// dedup ratio and the shard imbalance coefficient. The view is a pure
// function of the group registries, read at scrape time.

// EnableObservability attaches a live metrics plane to every group and
// returns the cluster-wide gatherer: merged series, "group<N>."-prefixed
// per-group series, and the derived shard-balance series. Routing
// latency is the merged req.{write,read}.ns: a request's root span
// starts when its front end admitted it. Call once, before serving traffic.
func (c *Cluster) EnableObservability() metrics.Gatherer {
	for _, g := range c.groups {
		g.EnableObservability(nil)
	}
	return c.observe()
}

// observe composes the cluster-wide view over the groups' registries
// (every group already has observability on) and adds the cluster's
// own series.
func (c *Cluster) observe() metrics.Gatherer {
	regs := make([]*metrics.Registry, len(c.groups))
	merged := make([]metrics.Gatherer, len(c.groups))
	for i, g := range c.groups {
		regs[i] = g.MetricsRegistry()
		merged[i] = regs[i]
	}
	mergedView := metrics.Merged(merged...)
	// Ratios cannot be summed across groups; derive them from the
	// merged counters at scrape time.
	gatherers := []metrics.Gatherer{mergedView, metrics.CapacityRatios(mergedView)}
	for i, reg := range regs {
		gatherers = append(gatherers, metrics.Prefixed(metrics.GroupPrefix(i), reg))
	}
	own := metrics.NewRegistry()
	own.Gauge("cluster.groups").Set(float64(len(c.groups)))
	gatherers = append(gatherers, own, metrics.GathererFunc(func() []metrics.Metric {
		return shardBalance(regs)
	}))
	return metrics.Multi(gatherers...)
}

// shardBalance computes the per-shard balance series at scrape time
// from the group registries' atomics (never from Server state, which
// each group's owner may be mutating).
func shardBalance(regs []*metrics.Registry) []metrics.Metric {
	n := len(regs)
	writes := make([]float64, n)
	var total float64
	for i, reg := range regs {
		writes[i] = float64(reg.Counter("core.writes").Value())
		total += writes[i]
	}
	out := make([]metrics.Metric, 0, 2*n+1)
	for i, reg := range regs {
		share := 0.0
		if total > 0 {
			share = writes[i] / total
		}
		dups := float64(reg.Counter("core.dup_chunks").Value())
		uniques := float64(reg.Counter("core.unique_chunks").Value())
		ratio := 0.0
		if dups+uniques > 0 {
			ratio = dups / (dups + uniques)
		}
		out = append(out,
			metrics.Metric{Kind: "gauge", Name: metrics.GroupPrefix(i) + "derived.write_share", Value: share},
			metrics.Metric{Kind: "gauge", Name: metrics.GroupPrefix(i) + "derived.dedup_ratio", Value: ratio},
		)
	}
	out = append(out, metrics.Metric{
		Kind: "gauge", Name: "cluster.shard_imbalance", Value: imbalance(writes),
	})
	return out
}

// imbalance is the coefficient of variation (stddev/mean) of per-shard
// write counts: 0 for perfect balance, growing with skew.
func imbalance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	var varsum float64
	for _, x := range xs {
		d := x - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(xs))) / mean
}

// TraceContext is the one trace context every traced entry point takes
// (see span.TraceContext); re-exported so front-ends above core and
// their callers share one spelling.
type TraceContext = core.TraceContext
