package fidr

import (
	"math"
	"sync"

	"fidr/internal/core"
	"fidr/internal/fingerprint"
	"fidr/internal/metrics"
)

// Cluster-wide observability. PR 2's metrics plane stopped at a single
// Server; the scale-out claims of §5.6 need per-shard visibility. Each
// group gets its own metrics.Registry, exposed three ways through one
// Gatherer: merged cluster-wide series (unprefixed, counters summed and
// histograms bucket-merged), per-group series under a "group<N>."
// prefix, and cluster-level derived series — per-shard write share and
// dedup ratio, the shard imbalance coefficient, and the cross-shard
// duplicate loss (content stored in more than one shard because LBA
// sharding splits the dedup domain).

// clusterObs binds a cluster's groups into one observability plane.
type clusterObs struct {
	regs []*metrics.Registry // each group's own, by group index
	own  *metrics.Registry

	crossDupChunks *metrics.Gauge

	// Cross-shard dedup-domain tracking: the fingerprint of every chunk
	// a group admits as unique maps to a bitmask of groups that stored
	// it. Content admitted by a second (third, ...) group is a duplicate
	// a single dedup domain would have stored once — the scale-out
	// trade-off made measurable (crossDupChunks counts the copies beyond
	// each content's first shard). One bit per group: maxGroups.
	mu        sync.Mutex
	contentAt map[fingerprint.FP]uint64
}

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
// (every group already has observability on) and starts the cluster's
// own series.
func (c *Cluster) observe() metrics.Gatherer {
	o := &clusterObs{
		regs:      make([]*metrics.Registry, len(c.groups)),
		own:       metrics.NewRegistry(),
		contentAt: make(map[fingerprint.FP]uint64),
	}
	gatherers := make([]metrics.Gatherer, 0, len(c.groups)+3)
	merged := make([]metrics.Gatherer, len(c.groups))
	for i, g := range c.groups {
		g.SetUniqueObserver(func(fp fingerprint.FP) { o.noteUnique(i, fp) })
		o.regs[i] = g.MetricsRegistry()
		merged[i] = o.regs[i]
	}
	mergedView := metrics.Merged(merged...)
	gatherers = append(gatherers, mergedView)
	// Ratios cannot be summed across groups; derive them from the
	// merged counters at scrape time.
	gatherers = append(gatherers, metrics.CapacityRatios(mergedView))
	for i := range c.groups {
		gatherers = append(gatherers, metrics.Prefixed(metrics.GroupPrefix(i), o.regs[i]))
	}
	o.own.Gauge("cluster.groups").Set(float64(len(c.groups)))
	o.crossDupChunks = o.own.Gauge("cluster.cross_shard_dup_chunks")
	gatherers = append(gatherers, o.own, metrics.GathererFunc(func() []metrics.Metric {
		return o.derived()
	}))
	return metrics.Multi(gatherers...)
}

// noteUnique records that group g admitted fp as unique content,
// updating the cross-shard duplicate gauge. It runs on the goroutine
// that owns group g, with the fingerprint the group's own hash stage
// computed.
func (o *clusterObs) noteUnique(g int, fp fingerprint.FP) {
	bit := uint64(1) << uint(g)
	o.mu.Lock()
	mask := o.contentAt[fp]
	if mask&bit == 0 {
		if mask != 0 {
			// A second (or later) shard now stores content another
			// shard already holds: one more copy than a global dedup
			// domain would keep.
			o.crossDupChunks.Add(1)
		}
		o.contentAt[fp] = mask | bit
	}
	o.mu.Unlock()
}

// derived computes the per-shard balance series at scrape time from the
// group registries' atomics (never from Server state, which each
// group's owner may be mutating).
func (o *clusterObs) derived() []metrics.Metric {
	n := len(o.regs)
	writes := make([]float64, n)
	var total float64
	for i, reg := range o.regs {
		writes[i] = float64(reg.Counter("core.writes").Value())
		total += writes[i]
	}
	out := make([]metrics.Metric, 0, 2*n+1)
	for i, reg := range o.regs {
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
