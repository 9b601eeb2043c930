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
// over the async front-end, where each server is single-owner and
// maintenance runs as its group's owner (Async.Maintenance), the groups
// in parallel. The merged views are what /capacity and the wire
// maintenance ops serve.

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

// onServers runs fn on every group's server, each call as that group's
// owner (Async.Maintenance), and collects what the calls returned.
func onServers[T any](a *Async, fn func(*Server) (T, error)) ([]T, error) {
	var mu sync.Mutex
	var out []T
	err := a.Maintenance(func(st Store) error {
		srv, ok := st.(*Server)
		if !ok {
			return fmt.Errorf("fidr: store %T is not a server", st)
		}
		v, err := fn(srv)
		if err != nil {
			return err
		}
		mu.Lock()
		out = append(out, v)
		mu.Unlock()
		return nil
	})
	return out, err
}

// CompactAll runs one GC pass on every group's server and returns
// the aggregate (the proto.Compactor surface behind OpCompact).
func (s *AsyncStore) CompactAll(minDeadFraction float64) (proto.CompactSummary, error) {
	passes, err := onServers(s.a, func(srv *Server) (CompactResult, error) {
		return srv.Compact(minDeadFraction)
	})
	var total CompactResult
	for _, res := range passes {
		total.Add(res)
	}
	return proto.CompactSummary{
		ContainersCompacted: uint64(total.ContainersCompacted),
		ChunksMoved:         uint64(total.ChunksMoved),
		ChunksDropped:       uint64(total.ChunksDropped),
		BytesReclaimed:      total.BytesReclaimed,
		BytesMoved:          total.BytesMoved,
	}, err
}

// CheckpointAll checkpoints every group's durable server (the
// proto.Checkpointer surface behind OpCheckpoint).
func (s *AsyncStore) CheckpointAll() error {
	_, err := onServers(s.a, func(srv *Server) (struct{}, error) {
		return struct{}{}, srv.Checkpoint()
	})
	return err
}

// CapacityReport builds the merged capacity view, each group's share
// computed as the owner of that group.
func (s *AsyncStore) CapacityReport(threshold float64) (CapacityReport, error) {
	reports, err := onServers(s.a, func(srv *Server) (CapacityReport, error) {
		return srv.CapacityReport(threshold), nil
	})
	if err != nil {
		return CapacityReport{}, err
	}
	return core.MergeCapacityReports(reports...), nil
}

// ContainerHeatmap builds the merged container heatmap the same way.
func (s *AsyncStore) ContainerHeatmap() (ContainerHeatmap, error) {
	maps, err := onServers(s.a, func(srv *Server) (ContainerHeatmap, error) {
		return srv.ContainerHeatmap(), nil
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
