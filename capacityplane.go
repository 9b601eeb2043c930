package fidr

import (
	"fmt"
	"sync"

	"fidr/internal/core"
	"fidr/internal/metrics/events"
	"fidr/internal/proto"
)

// Capacity plane surfaces over the front-ends. A single Server exposes
// CapacityReport / ContainerHeatmap / Compact / Checkpoint directly
// (fidr.Server is core.Server); this file lifts the same operations
// over the Cluster and the async front-end, where the per-group workers
// own the servers and maintenance must route through them.

// Re-exported capacity types so callers above core share one vocabulary.
type (
	// CapacityReport is the /capacity attribution + garbage-debt view.
	CapacityReport = core.CapacityReport
	// ContainerHeatmap is the /capacity/containers bucketed view.
	ContainerHeatmap = core.ContainerHeatmap
	// GCAdvice is the compaction recommendation inside a report.
	GCAdvice = core.GCAdvice
	// CompactResult reports one GC pass.
	CompactResult = core.CompactResult
	// EventJournal is the bounded structured event journal.
	EventJournal = events.Journal
	// Event is one structured journal record.
	Event = events.Event
)

// NewEventJournal builds a journal retaining capacity events (<= 0
// selects the default).
func NewEventJournal(capacity int) *EventJournal { return events.NewJournal(capacity) }

// SetEventJournal shares one journal across every group; group i's
// events carry Group: i, so a tail of the merged journal shows the
// cluster-wide interleaving in one sequence.
func (c *Cluster) SetEventJournal(j *EventJournal) {
	for i, g := range c.groups {
		g.SetEventJournal(j, i)
	}
}

// CapacityReport merges every group's report. Call from a quiesced
// context (no concurrent writers) or route through Async.Maintenance —
// open container and fingerprint occupancy are single-writer per group.
func (c *Cluster) CapacityReport(threshold float64) CapacityReport {
	rs := make([]CapacityReport, len(c.groups))
	for i, g := range c.groups {
		rs[i] = g.CapacityReport(threshold)
	}
	return core.MergeCapacityReports(rs...)
}

// ContainerHeatmap merges every group's heatmap cell-wise.
func (c *Cluster) ContainerHeatmap() ContainerHeatmap {
	hs := make([]ContainerHeatmap, len(c.groups))
	for i, g := range c.groups {
		hs[i] = g.ContainerHeatmap()
	}
	return core.MergeHeatmaps(hs...)
}

// Compact runs one GC pass on every group and sums the results.
func (c *Cluster) Compact(minDeadFraction float64) (CompactResult, error) {
	var total CompactResult
	for i, g := range c.groups {
		res, err := g.Compact(minDeadFraction)
		if err != nil {
			return total, fmt.Errorf("fidr: group %d compact: %w", i, err)
		}
		total.ContainersCompacted += res.ContainersCompacted
		total.ChunksMoved += res.ChunksMoved
		total.ChunksDropped += res.ChunksDropped
		total.BytesReclaimed += res.BytesReclaimed
		total.BytesMoved += res.BytesMoved
	}
	return total, nil
}

// compacter / checkpointer / capacitor are the per-store maintenance
// surfaces the async closures assert for (both Server and the stores a
// worker owns implement them).
type compacter interface {
	Compact(minDeadFraction float64) (CompactResult, error)
}
type checkpointer interface {
	Checkpoint() error
}
type capacitor interface {
	CapacityReport(threshold float64) CapacityReport
	ContainerHeatmap() ContainerHeatmap
}

// CompactAll runs one GC pass on every worker-owned store and returns
// the aggregate (the proto.Compactor surface behind OpCompact).
func (s *AsyncStore) CompactAll(minDeadFraction float64) (proto.CompactSummary, error) {
	var mu sync.Mutex
	var total proto.CompactSummary
	err := s.a.Maintenance(func(st Store) error {
		c, ok := st.(compacter)
		if !ok {
			return fmt.Errorf("fidr: store %T does not support compaction", st)
		}
		res, err := c.Compact(minDeadFraction)
		if err != nil {
			return err
		}
		mu.Lock()
		total.ContainersCompacted += uint64(res.ContainersCompacted)
		total.ChunksMoved += uint64(res.ChunksMoved)
		total.ChunksDropped += uint64(res.ChunksDropped)
		total.BytesReclaimed += res.BytesReclaimed
		total.BytesMoved += res.BytesMoved
		mu.Unlock()
		return nil
	})
	return total, err
}

// CheckpointAll checkpoints every worker-owned durable store (the
// proto.Checkpointer surface behind OpCheckpoint).
func (s *AsyncStore) CheckpointAll() error {
	return s.a.Maintenance(func(st Store) error {
		c, ok := st.(checkpointer)
		if !ok {
			return fmt.Errorf("fidr: store %T does not support checkpointing", st)
		}
		return c.Checkpoint()
	})
}

// CapacityReport builds the merged capacity view, each group's share
// computed on the worker that owns it.
func (s *AsyncStore) CapacityReport(threshold float64) (CapacityReport, error) {
	var mu sync.Mutex
	var reports []CapacityReport
	err := s.a.Maintenance(func(st Store) error {
		c, ok := st.(capacitor)
		if !ok {
			return fmt.Errorf("fidr: store %T does not report capacity", st)
		}
		r := c.CapacityReport(threshold)
		mu.Lock()
		reports = append(reports, r)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return CapacityReport{}, err
	}
	return core.MergeCapacityReports(reports...), nil
}

// ContainerHeatmap builds the merged container heatmap the same way.
func (s *AsyncStore) ContainerHeatmap() (ContainerHeatmap, error) {
	var mu sync.Mutex
	var maps []ContainerHeatmap
	err := s.a.Maintenance(func(st Store) error {
		c, ok := st.(capacitor)
		if !ok {
			return fmt.Errorf("fidr: store %T does not report capacity", st)
		}
		h := c.ContainerHeatmap()
		mu.Lock()
		maps = append(maps, h)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return ContainerHeatmap{}, err
	}
	return core.MergeHeatmaps(maps...), nil
}

// The async adapter satisfies the proto maintenance surfaces.
var (
	_ proto.Compactor    = (*AsyncStore)(nil)
	_ proto.Checkpointer = (*AsyncStore)(nil)
)
