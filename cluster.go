package fidr

import (
	"fmt"
	"time"

	"fidr/internal/core"
	"fidr/internal/hostmodel"
	"fidr/internal/trace/span"
)

// Cluster implements §5.6's scale-out arrangement: multiple groups of
// (NIC, Compression Engine, data SSDs), each under its own PCIe switch so
// peer-to-peer bandwidth never aggregates at one switch. Client LBAs are
// sharded across groups; each group is a full Server.
//
// The trade-off this makes measurable: throughput and buffering scale
// with group count, but deduplication domains split — content duplicated
// *across* shards is stored once per shard. (Enterprise arrays accept
// the same trade; global dedup across controllers is rare.)
type Cluster struct {
	groups []*Server
	// obs is the cluster-wide observability plane; nil until
	// EnableObservability (see clusterobs.go).
	obs *clusterObs
}

// maxGroups bounds a cluster: cluster.cross_shard_dup_chunks records the
// groups holding each content as one bit apiece of a uint64
// (clusterObs.contentAt), so a 65th group's copies would go uncounted.
const maxGroups = 64

// NewCluster builds n groups (1 <= n <= 64) from cfg (each group gets
// its own devices). A write-ahead log is group-local (like a group's
// SSDs), so cfg.WAL must be nil for n > 1: one log shared across groups
// would interleave unrelated allocation sequences and corrupt every
// group on replay. NewNode builds groups that each own a log.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("fidr: cluster needs at least one group")
	}
	if n > maxGroups {
		return nil, fmt.Errorf("fidr: cluster of %d groups: the cross-shard duplicate count tracks at most %d", n, maxGroups)
	}
	if cfg.WAL != nil && n > 1 {
		return nil, fmt.Errorf("fidr: a WAL is group-local; cannot share one across %d groups", n)
	}
	c := &Cluster{groups: make([]*Server, n)}
	for i := range c.groups {
		g, err := NewServer(cfg)
		if err != nil {
			return nil, fmt.Errorf("fidr: group %d: %w", i, err)
		}
		c.groups[i] = g
	}
	return c, nil
}

// Groups returns the number of device groups.
func (c *Cluster) Groups() int { return len(c.groups) }

// Group exposes one underlying server (for per-group inspection).
func (c *Cluster) Group(i int) *Server { return c.groups[i] }

// GroupFor returns the group index an LBA is sharded to.
func (c *Cluster) GroupFor(lba uint64) int { return core.ShardOf(lba, len(c.groups)) }

// groupStore is one device group as the cluster serves it: the group's
// Server, with requests timed into the cluster-level routing series when
// observability is on. Cluster's own request methods and the async
// front-end's per-group workers both serve through it, so the series
// are live whichever way a request arrives.
type groupStore struct {
	*Server
	c *Cluster
}

func (c *Cluster) serving(g int) groupStore { return groupStore{c.groups[g], c} }

// WriteTraced stores one chunk on the group, adopting tc (front-end
// spans) into its request trace.
func (g groupStore) WriteTraced(lba uint64, data []byte, tc *TraceContext) error {
	o := g.c.obs
	if o == nil {
		return g.Server.WriteTraced(lba, data, tc)
	}
	start := startOr(tc)
	err := g.Server.WriteTraced(lba, data, tc)
	o.writeNS.Observe(float64(time.Since(start).Nanoseconds()))
	return err
}

// ReadTraced fetches one chunk from the group, adopting tc into its
// request trace.
func (g groupStore) ReadTraced(lba uint64, tc *TraceContext) ([]byte, error) {
	o := g.c.obs
	if o == nil {
		return g.Server.ReadTraced(lba, tc)
	}
	start := startOr(tc)
	data, err := g.Server.ReadTraced(lba, tc)
	o.readNS.Observe(float64(time.Since(start).Nanoseconds()))
	return data, err
}

// Write stores one chunk via its shard.
func (c *Cluster) Write(lba uint64, data []byte) error {
	return c.WriteTraced(lba, data, nil)
}

// WriteTraced stores one chunk via its shard, adopting tc (front-end
// spans) into the shard's request trace.
func (c *Cluster) WriteTraced(lba uint64, data []byte, tc *TraceContext) error {
	return c.serving(c.GroupFor(lba)).WriteTraced(lba, data, tc)
}

// Read fetches one chunk via its shard.
func (c *Cluster) Read(lba uint64) ([]byte, error) {
	return c.ReadTraced(lba, nil)
}

// ReadTraced fetches one chunk via its shard, adopting tc into the
// shard's request trace.
func (c *Cluster) ReadTraced(lba uint64, tc *TraceContext) ([]byte, error) {
	return c.serving(c.GroupFor(lba)).ReadTraced(lba, tc)
}

// startOr returns tc's front-end start time when set, else now — so the
// cluster histograms include queue wait when a front-end measured it.
func startOr(tc *TraceContext) time.Time {
	if tc != nil && !tc.Start.IsZero() {
		return tc.Start
	}
	return time.Now()
}

// ReadRange returns n consecutive chunks starting at lba, concatenated,
// fanning out to each LBA's shard (same contract as Server.ReadRange).
func (c *Cluster) ReadRange(lba uint64, n int) ([]byte, error) {
	return c.ReadRangeTraced(lba, n, nil)
}

// ReadRangeTraced is ReadRange with a trace context shared by every
// chunk read (each resolves on its own shard, all in one trace).
func (c *Cluster) ReadRangeTraced(lba uint64, n int, tc *TraceContext) ([]byte, error) {
	return core.ReadRange(c, n, func(i int) ([]byte, error) { return c.ReadTraced(lba+uint64(i), tc) })
}

// CheckRange is Server.CheckRange for the cluster (chunking is uniform
// across groups).
func (c *Cluster) CheckRange() error { return c.groups[0].CheckRange() }

// ChunkSize returns the cluster's chunk size (uniform across groups).
func (c *Cluster) ChunkSize() int { return c.groups[0].ChunkSize() }

// SetSpanCollector shares one trace collector across every group, each
// tagging its spans with its group index: the collector's views are
// cluster-wide by construction, with no per-group merge. Call after
// EnableObservability.
func (c *Cluster) SetSpanCollector(col *span.Collector) {
	for i, g := range c.groups {
		g.SetSpanCollector(col, i)
	}
}

// SetTraceSampling head-samples untraced requests on every group: one
// request in every `every` gets a trace (0 disables).
func (c *Cluster) SetTraceSampling(every int) {
	for _, g := range c.groups {
		g.SetTraceSampling(every)
	}
}

// Flush drains every group.
func (c *Cluster) Flush() error {
	for i, g := range c.groups {
		if err := g.Flush(); err != nil {
			return fmt.Errorf("fidr: group %d flush: %w", i, err)
		}
	}
	return nil
}

// Stats aggregates all groups' counters; safe while the groups serve
// traffic (each group's Stats() reads atomics).
func (c *Cluster) Stats() Stats {
	var total Stats
	for _, g := range c.groups {
		s := g.Stats()
		total.ClientWrites += s.ClientWrites
		total.ClientReads += s.ClientReads
		total.ClientBytes += s.ClientBytes
		total.DuplicateChunks += s.DuplicateChunks
		total.UniqueChunks += s.UniqueChunks
		total.StoredBytes += s.StoredBytes
		total.LogicalWriteBytes += s.LogicalWriteBytes
		total.DedupSavedBytes += s.DedupSavedBytes
		total.CompressionSavedBytes += s.CompressionSavedBytes
		total.DeletedFingerprints += s.DeletedFingerprints
		total.ReclaimedDeadBytes += s.ReclaimedDeadBytes
		total.NICReadHits += s.NICReadHits
		total.ReadCacheHits += s.ReadCacheHits
		total.PendingReads += s.PendingReads
		total.BatchesProcessed += s.BatchesProcessed
		total.Mispredictions += s.Mispredictions
	}
	return total
}

// Snapshot merges all groups' resource ledgers (the cluster's sockets
// are independent, so per-byte intensities stay comparable to a single
// server's).
func (c *Cluster) Snapshot() hostmodel.Snapshot {
	var total hostmodel.Snapshot
	for _, g := range c.groups {
		s := g.Ledger().Snapshot()
		for i := range total.MemBytes {
			total.MemBytes[i] += s.MemBytes[i]
		}
		for i := range total.CPUNanos {
			total.CPUNanos[i] += s.CPUNanos[i]
		}
		total.ClientBytes += s.ClientBytes
	}
	return total
}
