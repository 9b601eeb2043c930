package fidr

import (
	"fmt"

	"fidr/internal/core"
	"fidr/internal/hostmodel"
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
//
// A Cluster is the group set and a plain synchronous Store over it.
// Serving it concurrently is Async's job (one owner lock per group), and
// the merged maintenance views are AsyncStore's.
type Cluster struct {
	groups []*Server
}

// maxGroups bounds a cluster: each group allocates its whole table cache
// up front (CacheLines x 4 KiB, 16 MiB at the default), so 64 groups
// already hold about 1 GiB of host DRAM.
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
		return nil, fmt.Errorf("fidr: cluster of %d groups: each group's table cache is allocated up front, so at most %d", n, maxGroups)
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

// Write stores one chunk on the group its LBA is sharded to.
func (c *Cluster) Write(lba uint64, data []byte) error {
	return c.groups[c.GroupFor(lba)].Write(lba, data)
}

// Read fetches one chunk from the group its LBA is sharded to.
func (c *Cluster) Read(lba uint64) ([]byte, error) {
	return c.groups[c.GroupFor(lba)].Read(lba)
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
		total.Add(g.Stats())
	}
	return total
}

// Snapshot merges all groups' resource ledgers (the cluster's sockets
// are independent, so per-byte intensities stay comparable to a single
// server's).
func (c *Cluster) Snapshot() hostmodel.Snapshot {
	var total hostmodel.Snapshot
	for _, g := range c.groups {
		total.Add(g.Ledger().Snapshot())
	}
	return total
}
