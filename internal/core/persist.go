package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"fidr/internal/engine"
	"fidr/internal/fingerprint"
	"fidr/internal/lbatable"
	"fidr/internal/metrics/events"
)

// Metadata durability (extension). The Hash-PBN table is durable by
// construction (write-back bucket cache over the table SSDs); the
// LBA-PBA mapping, reference counts and per-PBN fingerprints live in
// memory. Checkpoint persists them to a reserved table-SSD region after
// flushing all data, and Recover rebuilds a server over the same devices.
// With a WAL attached (wal.go), every mutation between checkpoints is
// also logged, and recovery replays the log on top of the checkpoint —
// or from genesis when the volume has records but no checkpoint yet.
//
// Checkpoint region layout at tableSSD[geometry.TableBytes():]:
//
//	magic "FIDRCKP2"
//	u64 WAL sequence number covered by this checkpoint (0: no WAL)
//	u64 lba-snapshot length, snapshot bytes (lbatable format "FIDRLBA2":
//	    every level-2 entry carries the chunk's uncompressed length)
//	u64 fingerprint count, 32 B each (PBN order)
//
// The v1 layout ("FIDRCKP1", no sequence field) is still read; it
// implies WAL sequence 0.
//
// Old-volume rule: metadata written before uncompressed lengths were
// recorded — a "FIDRLBA1" snapshot inside either checkpoint layout, or a
// WAL append frame whose length field is zero — is refused with
// ErrCorruptCheckpoint. Nothing is guessed from configuration, and a
// stale log is never silently skipped.

var (
	ckpMagic   = [8]byte{'F', 'I', 'D', 'R', 'C', 'K', 'P', '2'}
	ckpMagicV1 = [8]byte{'F', 'I', 'D', 'R', 'C', 'K', 'P', '1'}
)

// ErrNoCheckpoint reports a table volume with no checkpoint (and, when a
// WAL is attached, no log records): not a FIDR volume, or a fresh one.
var ErrNoCheckpoint = errors.New("core: no checkpoint found on table volume")

// ErrCorruptCheckpoint reports durable metadata that exists but cannot be
// restored: a checkpoint with damaged bytes or a geometry/config mismatch,
// or a write-ahead log whose records do not apply over it. Distinguish
// from ErrNoCheckpoint with errors.Is.
var ErrCorruptCheckpoint = errors.New("core: corrupt checkpoint on table volume")

// checkpointOffset is where the checkpoint region begins on the table SSD.
func (s *Server) checkpointOffset() uint64 { return s.geom.TableBytes() }

// Checkpoint flushes all in-flight data (open batches, open containers,
// dirty table-cache lines) and persists the volatile metadata. After a
// successful Checkpoint, RecoverServer over the same SSDs reproduces the
// server's full state. With a WAL attached the log is truncated last —
// the checkpoint records the highest WAL sequence it covers, so a crash
// between the two steps cannot double-apply records on recovery.
func (s *Server) Checkpoint() error {
	if err := s.failIfCrashed(); err != nil {
		return err
	}
	if err := s.Flush(); err != nil {
		return err
	}
	// First mid-checkpoint window: everything is flushed and WAL-logged,
	// but the checkpoint image is still the old one.
	if err := s.crashPoint(CrashMidCheckpoint); err != nil {
		return err
	}
	if err := s.cache.FlushAll(); err != nil {
		return err
	}
	var walSeq uint64
	if s.wal != nil {
		walSeq = s.wal.LastSeq()
	}
	var buf bytes.Buffer
	buf.Write(ckpMagic[:])
	binary.Write(&buf, binary.LittleEndian, walSeq)
	snap := s.lba.Snapshot()
	binary.Write(&buf, binary.LittleEndian, uint64(len(snap)))
	buf.Write(snap)
	binary.Write(&buf, binary.LittleEndian, uint64(len(s.pbnFP)))
	for i := range s.pbnFP {
		buf.Write(s.pbnFP[i][:])
	}
	if err := s.tableSSD.Write(s.checkpointOffset(), buf.Bytes()); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	// Second mid-checkpoint window: new checkpoint on disk, WAL not yet
	// truncated. Replay must skip records with seq <= walSeq.
	if err := s.crashPoint(CrashMidCheckpoint); err != nil {
		return err
	}
	s.emitEvent(events.Event{
		Type: events.TypeCheckpoint,
		Fields: map[string]int64{
			"wal_seq":        int64(walSeq),
			"snapshot_bytes": int64(len(snap)),
			"fingerprints":   int64(len(s.pbnFP)),
		},
	})
	if s.wal != nil {
		if err := s.wal.Reset(); err != nil {
			return err
		}
		s.emitEvent(events.Event{
			Type:   events.TypeWALTruncate,
			Fields: map[string]int64{"covered_seq": int64(walSeq)},
		})
	}
	s.syncCapacityGauges()
	return nil
}

// RecoveryReport summarizes what RecoverServer did.
type RecoveryReport struct {
	// FromGenesis is true when no checkpoint existed and the state was
	// rebuilt purely from the WAL.
	FromGenesis bool
	// CheckpointSeq is the WAL sequence number the checkpoint covered.
	CheckpointSeq uint64
	// ReplayedRecords counts WAL records applied on top of the
	// checkpoint.
	ReplayedRecords int
	// StaleTableEntriesDropped counts Hash-PBN entries removed because
	// they referenced chunks the recovered metadata does not know — the
	// write-back bucket cache can run ahead of the WAL.
	StaleTableEntriesDropped int
	// OrphanedContainersCleared counts data-SSD containers zeroed
	// because no recovered metadata referenced them (written between
	// the last WAL commit and the crash).
	OrphanedContainersCleared int
}

// LastRecovery reports what the RecoverServer pass that built this
// server did (zero value for servers built with New).
func (s *Server) LastRecovery() RecoveryReport { return s.recovery }

// RecoverServer rebuilds a server from a Checkpoint and, when cfg.WAL is
// set, replays the log over it. cfg must carry the original TableSSD and
// DataSSD and the original UniqueChunkCapacity / ContainerSize (the
// on-SSD geometry is derived from them). The two failure classes are
// errors.Is-distinguishable: ErrNoCheckpoint (nothing to recover) and
// ErrCorruptCheckpoint (a checkpoint that cannot be restored).
func RecoverServer(cfg Config) (*Server, error) {
	if cfg.TableSSD == nil || cfg.DataSSD == nil {
		return nil, fmt.Errorf("core: recovery requires the original TableSSD and DataSSD")
	}
	// Normalize first so defaults (e.g. the compressor) are available
	// to the recovery path itself.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	off := s.checkpointOffset()
	hdr, err := s.tableSSD.Read(off, 24)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint header: %w", err)
	}
	var magic [8]byte
	copy(magic[:], hdr[:8])
	var rr RecoveryReport
	var snapLen, bodyOff uint64
	haveCkp := true
	switch magic {
	case ckpMagic:
		rr.CheckpointSeq = binary.LittleEndian.Uint64(hdr[8:])
		snapLen = binary.LittleEndian.Uint64(hdr[16:])
		bodyOff = off + 24
	case ckpMagicV1:
		snapLen = binary.LittleEndian.Uint64(hdr[8:])
		bodyOff = off + 16
	default:
		haveCkp = false
		if s.wal == nil || s.wal.LastSeq() == 0 {
			return nil, fmt.Errorf("core: table volume %q: %w",
				s.tableSSD.Config().Name, ErrNoCheckpoint)
		}
		// WAL-only recovery: the volume crashed before its first
		// checkpoint. Replay rebuilds everything from genesis.
		rr.FromGenesis = true
	}
	if haveCkp {
		// A length is checked against what the volume holds, not what it
		// could address (1 TiB for fidrd's volumes), before it sizes a read.
		held := uint64(s.tableSSD.StoredPages()) * uint64(s.tableSSD.Config().PageSize)
		if snapLen > held {
			return nil, fmt.Errorf("core: snapshot size %d exceeds the %d bytes the table volume holds: %w",
				snapLen, held, ErrCorruptCheckpoint)
		}
		snap, err := s.tableSSD.Read(bodyOff, int(snapLen))
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint body: %v: %w", err, ErrCorruptCheckpoint)
		}
		lba, err := lbatable.RestoreTable(snap)
		if err != nil {
			return nil, fmt.Errorf("core: %v: %w", err, ErrCorruptCheckpoint)
		}
		if lba.ContainerSize() != cfg.ContainerSize {
			return nil, fmt.Errorf("core: checkpoint container size %d != config %d: %w",
				lba.ContainerSize(), cfg.ContainerSize, ErrCorruptCheckpoint)
		}
		fpHdr, err := s.tableSSD.Read(bodyOff+snapLen, 8)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint fingerprints: %v: %w", err, ErrCorruptCheckpoint)
		}
		nFP := binary.LittleEndian.Uint64(fpHdr)
		if nFP != lba.Chunks() || nFP > held/fingerprint.Size {
			return nil, fmt.Errorf("core: checkpoint has %d fingerprints for %d chunks in a %d-byte volume: %w",
				nFP, lba.Chunks(), held, ErrCorruptCheckpoint)
		}
		fpBytes, err := s.tableSSD.Read(bodyOff+8+snapLen, int(nFP)*fingerprint.Size)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint fingerprints: %v: %w", err, ErrCorruptCheckpoint)
		}
		pbnFP := make([]fingerprint.FP, nFP)
		for i := range pbnFP {
			copy(pbnFP[i][:], fpBytes[i*fingerprint.Size:])
		}
		s.lba = lba
		s.pbnFP = pbnFP
	}
	// Replay the WAL over the checkpointed (or genesis) state, skipping
	// records the checkpoint already covers.
	if s.wal != nil {
		n, err := s.wal.Replay(rr.CheckpointSeq, s.applyWALRecord)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrCorruptCheckpoint)
		}
		rr.ReplayedRecords = n
		s.wal.ensureSeqAfter(rr.CheckpointSeq)
	}
	// Resume container allocation where the recovered state stops.
	comp, err := engine.NewCompressionAt(cfg.Compressor, cfg.ContainerSize, s.lba.NextContainer())
	if err != nil {
		return nil, err
	}
	s.comp = comp
	// Crash repair: the durable Hash-PBN table and the data SSD can both
	// run ahead of the WAL (write-back evictions; container writes whose
	// commit never happened). Drop what the recovered metadata disowns.
	if s.wal != nil {
		dropped, err := s.scrubStaleTable()
		if err != nil {
			return nil, fmt.Errorf("core: table scrub: %w", err)
		}
		rr.StaleTableEntriesDropped = dropped
		cleared, err := s.clearOrphanedContainers()
		if err != nil {
			return nil, fmt.Errorf("core: orphan cleanup: %w", err)
		}
		rr.OrphanedContainersCleared = cleared
	} else {
		// Without a WAL the scrub pass (whose walk counts live table
		// entries exactly) does not run; approximate occupancy by the
		// allocated-PBN count. The count self-corrects at the next scrub.
		s.fpLive = s.lba.Chunks()
	}
	s.recovery = rr
	s.recovered = true
	return s, nil
}

// applyWALRecord applies one replayed mutation. Append re-derives its
// PBN and cross-checks the logged one, so silent divergence between the
// replayed allocation sequence and the original is an error, not
// corruption discovered later.
func (s *Server) applyWALRecord(r WALRecord) error {
	switch r.Kind {
	case WALAppend:
		pbn, err := s.lba.Append(r.LBA, lbatable.PBA{
			Container: r.Container, Offset: r.Offset, CSize: r.CSize, RawSize: r.RawSize})
		if err != nil {
			return err
		}
		if pbn != r.PBN {
			return fmt.Errorf("core: replay allocated PBN %d, log recorded %d", pbn, r.PBN)
		}
		if err := s.cache.Insert(r.FP, pbn); err != nil {
			return err
		}
		for uint64(len(s.pbnFP)) <= pbn {
			s.pbnFP = append(s.pbnFP, fingerprint.FP{})
		}
		s.pbnFP[pbn] = r.FP
		s.fpLive++
		return nil
	case WALMapLBA:
		return s.lba.MapLBA(r.LBA, r.PBN)
	case WALRelocate:
		return s.lba.Relocate(r.PBN, r.Container, r.Offset)
	case WALRetire:
		s.lba.RetireContainer(r.Container)
		return nil
	case WALDeleteFP:
		_, err := s.cache.Delete(r.FP)
		if err == nil && s.fpLive > 0 {
			s.fpLive--
		}
		return err
	default:
		return fmt.Errorf("core: unknown WAL record kind %d", r.Kind)
	}
}

// scrubStaleTable drops Hash-PBN entries referencing chunks the
// recovered metadata does not know: dirty bucket-cache lines evicted to
// the table SSD before the crash can index PBNs whose allocations never
// became durable. Left in place, a later duplicate write would dedup
// against a PBN that now holds different (or no) data.
func (s *Server) scrubStaleTable() (int, error) {
	// The scrub walk visits every live table entry, so it doubles as the
	// exact fingerprint-occupancy recount after recovery.
	var kept uint64
	dropped, err := s.cache.Scrub(func(fp fingerprint.FP, pbn uint64) bool {
		keep := pbn < s.lba.Chunks() && pbn < uint64(len(s.pbnFP)) && s.pbnFP[pbn] == fp
		if keep {
			kept++
		}
		return keep
	})
	if err == nil {
		s.fpLive = kept
	}
	return dropped, err
}

// orphanScanWindow bounds the forward scan for orphaned containers. One
// crash loses at most the containers of one in-flight flush batch, far
// below this bound.
const orphanScanWindow = 64

// clearOrphanedContainers zeroes data-SSD containers past the recovered
// allocation frontier: a crash between a container's data write and its
// WAL commit leaves data no metadata references. Scanning stops at the
// first all-zero container slot.
func (s *Server) clearOrphanedContainers() (int, error) {
	csize := uint64(s.cfg.ContainerSize)
	next := s.lba.NextContainer()
	cleared := 0
	var zeros []byte
	for c := next; c < next+orphanScanWindow; c++ {
		off := c * csize
		if off+csize > s.dataSSD.Config().CapacityBytes {
			break
		}
		data, err := s.dataSSD.Read(off, s.cfg.ContainerSize)
		if err != nil {
			return cleared, err
		}
		if allZero(data) {
			break
		}
		if zeros == nil {
			zeros = make([]byte, s.cfg.ContainerSize)
		}
		if err := s.dataSSD.Write(off, zeros); err != nil {
			return cleared, err
		}
		cleared++
	}
	return cleared, nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
