package core

import (
	"fmt"
	"sort"
)

// Point-in-time snapshots (extension). Deduplicated storage makes
// snapshots nearly free: a snapshot is a copy of the LBA -> PBN mapping
// with a reference taken on every mapped chunk. Later overwrites of the
// live volume remap live LBAs to new PBNs (implicit copy-on-write), while
// the snapshot's references keep its chunks alive through garbage
// collection and compaction. Snapshots are volatile (not part of
// Checkpoint); persisting them is straightforward follow-on work.

// SnapshotID names a snapshot.
type SnapshotID uint64

// snapshotState is one retained mapping set.
type snapshotState struct {
	mappings map[uint64]uint64
}

// CreateSnapshot captures the live volume's current state. In-flight
// batched writes are flushed first so the snapshot is a crash-consistent
// point in time.
func (s *Server) CreateSnapshot() (SnapshotID, error) {
	if err := s.Flush(); err != nil {
		return 0, err
	}
	tr := s.obs.begin("snapshot", 0)
	defer tr.done()
	from := tr.start()
	m := s.lba.Mappings()
	for _, pbn := range m {
		if err := s.lba.Retain(pbn); err != nil {
			return 0, err
		}
	}
	tr.span(StageLBAResolve, from)
	if s.snapshots == nil {
		s.snapshots = make(map[SnapshotID]*snapshotState)
	}
	s.nextSnapID++
	id := SnapshotID(s.nextSnapID)
	s.snapshots[id] = &snapshotState{mappings: m}
	return id, nil
}

// Snapshots lists existing snapshot ids in creation order.
func (s *Server) Snapshots() []SnapshotID {
	out := make([]SnapshotID, 0, len(s.snapshots))
	for id := range s.snapshots {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReadSnapshot returns the chunk at lba as of the snapshot.
func (s *Server) ReadSnapshot(id SnapshotID, lba uint64) ([]byte, error) {
	snap, ok := s.snapshots[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown snapshot %d", id)
	}
	pbn, ok := snap.mappings[lba]
	if !ok {
		return nil, ErrNotFound
	}
	// A waiting commit may seal the container this chunk would be read from.
	if err := s.settle(); err != nil {
		return nil, err
	}
	tr := s.obs.begin("snapshot_read", lba)
	defer tr.done()
	from := tr.start()
	pba, err := s.lba.Resolve(pbn)
	if err != nil {
		return nil, err
	}
	tr.span(StageLBAResolve, from)
	cdata, _, err := s.fetchCompressed(pba, tr)
	if err != nil {
		return nil, err
	}
	from = tr.start()
	out, err := s.decomp.Decompress(cdata, int(pba.RawSize))
	if err != nil {
		return nil, err
	}
	tr.span(StageDecompress, from)
	return out, nil
}

// DeleteSnapshot releases the snapshot's references; chunks it was the
// last holder of become garbage for the next Compact.
func (s *Server) DeleteSnapshot(id SnapshotID) error {
	snap, ok := s.snapshots[id]
	if !ok {
		return fmt.Errorf("core: unknown snapshot %d", id)
	}
	if err := s.settle(); err != nil {
		return err
	}
	for _, pbn := range snap.mappings {
		if err := s.lba.Release(pbn); err != nil {
			return err
		}
	}
	delete(s.snapshots, id)
	return nil
}
