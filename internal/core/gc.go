package core

import (
	"fmt"
	"sort"

	"fidr/internal/fingerprint"
	"fidr/internal/hostmodel"
	"fidr/internal/metrics/events"
	"fidr/internal/pcie"
)

// Garbage collection (extension). Overwrites and re-deduplication drop
// references to stored chunks, stranding dead compressed bytes inside
// sealed containers. Compact picks containers whose dead fraction exceeds
// a threshold, copies their live chunks into the open container (data SSD
// -> Compression Engine peer-to-peer in FIDR; through host memory in the
// baseline), retires the dead chunks' fingerprints from the Hash-PBN
// table, and reclaims the container.

// GarbageStats summarizes reclaimable space.
type GarbageStats struct {
	// DeadBytesByContainer maps container index -> dead compressed bytes.
	DeadBytesByContainer map[uint64]uint64
	// TotalDeadBytes sums the above.
	TotalDeadBytes uint64
}

// Garbage reports current dead-space accounting.
func (s *Server) Garbage() GarbageStats {
	s.settleQuietly()
	return GarbageStats{
		DeadBytesByContainer: s.lba.DeadBytes(),
		TotalDeadBytes:       s.lba.TotalDeadBytes(),
	}
}

// CompactResult reports one compaction pass.
type CompactResult struct {
	ContainersCompacted int
	ChunksMoved         int
	ChunksDropped       int
	// BytesReclaimed counts retired container capacity.
	BytesReclaimed uint64
	// BytesMoved counts live compressed bytes rewritten.
	BytesMoved uint64
}

// Add sums another pass (another group's, say) into r.
func (r *CompactResult) Add(o CompactResult) {
	r.ContainersCompacted += o.ContainersCompacted
	r.ChunksMoved += o.ChunksMoved
	r.ChunksDropped += o.ChunksDropped
	r.BytesReclaimed += o.BytesReclaimed
	r.BytesMoved += o.BytesMoved
}

// Compact garbage-collects sealed containers whose dead fraction is at
// least minDeadFraction (0 compacts anything with any dead bytes). The
// open container is never a candidate. Returns what was reclaimed. The
// whole pass runs under one "gc" trace: table retirements, chunk moves
// and container writes all land in the stage histograms.
func (s *Server) Compact(minDeadFraction float64) (CompactResult, error) {
	var res CompactResult
	if err := s.failIfCrashed(); err != nil {
		return res, err
	}
	if err := s.settle(); err != nil {
		return res, err
	}
	tr := s.obs.begin("gc", 0)
	defer tr.done()
	dead := s.lba.DeadBytes()
	// Only containers on the SSD are candidates: not the open one, nor a
	// sealed one a failed write left queued in the engine (writeSealed
	// would put it back on the SSD after its retirement).
	durable := s.comp.DurableContainers()
	// Deterministic candidate order.
	var candidates []uint64
	for c, b := range dead {
		if c >= durable {
			continue
		}
		if float64(b)/float64(s.cfg.ContainerSize) >= minDeadFraction && b > 0 {
			candidates = append(candidates, c)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	// The whole pass logs as one atomic WAL group: a dead chunk's
	// fingerprint deletion must never become durable without the
	// relocations and retirement it belongs with, or replay would leave
	// live chunks whose fingerprints are missing from the table.
	if s.wal != nil {
		s.wal.BeginGroup()
	}
	var passErr error
	for _, c := range candidates {
		if passErr = s.compactOne(c, &res, tr); passErr != nil {
			break
		}
	}
	if s.wal != nil {
		s.wal.EndGroup()
	}
	if passErr != nil {
		return res, passErr
	}
	// Containers sealed during compaction go to the SSDs as usual.
	if err := s.writeSealed(tr); err != nil {
		return res, err
	}
	s.emitEvent(events.Event{
		Type:   events.TypeGCRun,
		Trace:  tr.heldID(),
		Detail: fmt.Sprintf("threshold=%.2f", minDeadFraction),
		Fields: map[string]int64{
			"containers_compacted": int64(res.ContainersCompacted),
			"chunks_moved":         int64(res.ChunksMoved),
			"chunks_dropped":       int64(res.ChunksDropped),
			"bytes_reclaimed":      int64(res.BytesReclaimed),
			"bytes_moved":          int64(res.BytesMoved),
		},
	})
	return res, nil
}

// compactOne moves container c's live chunks out and retires it.
func (s *Server) compactOne(c uint64, res *CompactResult, tr *ReqTrace) error {
	// Capture the container's dead bytes before retirement wipes the
	// entry: once retired they are reclaimed, not garbage.
	deadHere := s.lba.DeadBytesIn(c)
	// Drop dead fingerprints first so their table entries cannot match
	// new writes mid-compaction.
	from := tr.start()
	for _, pbn := range s.lba.DeadChunks(c) {
		fp, ok := s.fpOf(pbn)
		if !ok {
			return fmt.Errorf("core: no fingerprint recorded for PBN %d", pbn)
		}
		if _, err := s.cache.Delete(fp); err != nil {
			return err
		}
		s.walDeleteFP(fp)
		if s.fpLive > 0 {
			s.fpLive--
		}
		s.ctr.deletedFPs.Inc()
		res.ChunksDropped++
	}
	tr.span(StageDedupLookup, from)
	// Move live chunks into the open container.
	for _, pbn := range s.lba.LiveChunks(c) {
		pba, err := s.lba.Resolve(pbn)
		if err != nil {
			return err
		}
		cdata, fromSSD, err := s.fetchCompressed(pba, tr)
		if err != nil {
			return err
		}
		if fromSSD {
			if s.cfg.Arch == Baseline {
				// SSD -> host -> (host-side packer).
				s.transfer(devDataSSD, pcie.HostMemory, uint64(len(cdata)))
				s.ledger.MemPayload(hostmodel.PathHostSSD, uint64(len(cdata)))
			} else {
				// SSD -> Compression Engine, peer-to-peer.
				s.transfer(devDataSSD, devComp, uint64(len(cdata)))
			}
			s.ledger.Count(hostmodel.EvDataSSDIO, 1)
		}
		fp, _ := s.fpOf(pbn)
		packStart := tr.start()
		meta, err := s.comp.Pack(0, fp, cdata, len(cdata))
		if err != nil {
			return err
		}
		tr.span(StageCompress, packStart)
		if err := s.lba.Relocate(pbn, meta.Container, meta.Offset); err != nil {
			return err
		}
		s.walRelocate(pbn, meta.Container, meta.Offset)
		s.ledger.Count(hostmodel.EvDeviceMgrChunk, 1)
		res.ChunksMoved++
		res.BytesMoved += uint64(len(cdata))
	}
	s.lba.RetireContainer(c)
	s.walRetire(c)
	s.reclaimed = append(s.reclaimed, c)
	s.ctr.reclaimedDead.Add(deadHere)
	res.ContainersCompacted++
	res.BytesReclaimed += uint64(s.cfg.ContainerSize)
	return nil
}

// fpOf returns the fingerprint recorded for a PBN.
func (s *Server) fpOf(pbn uint64) (fingerprint.FP, bool) {
	if pbn >= uint64(len(s.pbnFP)) {
		return fingerprint.FP{}, false
	}
	return s.pbnFP[pbn], true
}

// ReclaimedContainers lists container indexes retired by compaction.
func (s *Server) ReclaimedContainers() []uint64 {
	out := make([]uint64, len(s.reclaimed))
	copy(out, s.reclaimed)
	return out
}
