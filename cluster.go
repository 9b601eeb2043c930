package fidr

import (
	"errors"
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
// its own devices). Content-defined chunking needs n = 1: groups shard by
// address, and a segment's interior extents would miss its group. A
// write-ahead log is group-local (like a group's SSDs), so cfg.WAL must
// be nil for n > 1: one log shared across groups would interleave
// unrelated allocation sequences and corrupt every group on replay.
// NewNode builds groups that each own a log.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	if err := checkGroups(cfg, n); err != nil {
		return nil, err
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

// checkGroups refuses n groups of cfg that cannot form a cluster, before
// any is built; NewCluster and a node's configuration both ask it.
func checkGroups(cfg Config, n int) error {
	switch {
	case n < 1:
		return fmt.Errorf("fidr: -groups %d: a node has at least one group", n)
	case n > maxGroups:
		return fmt.Errorf("fidr: -groups %d: each group's table cache is allocated up front, so at most %d groups", n, maxGroups)
	case n > 1 && cfg.Chunking.Unit() == 1:
		// Addressing, not persistence: the router shards by address before
		// any chunker runs, so a segment's interior extents would land on
		// a group that never saw them.
		return errors.New("fidr: -chunker=cdc requires -groups 1")
	}
	return nil
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
