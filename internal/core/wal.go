package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fidr/internal/fingerprint"
	"fidr/internal/metrics"
)

// Write-ahead logging (extension). Checkpoint makes the volatile dedup
// metadata (LBA-PBA mapping, reference counts, per-PBN fingerprints)
// durable, but everything between checkpoints dies with the process. The
// WAL closes that gap: every table/refcount/LBA mutation appends one
// fixed-size record, records are fsynced in batches at container-flush
// boundaries, and RecoverServer replays the log over the last checkpoint.
//
// The log is group-local: each server (device group) owns one WAL, just
// as it owns its table and data SSDs — there is no cross-group ordering
// to preserve because groups shard by LBA and never share chunks.
//
// Durability rule (metadata never leads data): a record that references
// container C is only eligible for flushing once C has been sealed and
// written to the data SSD. Records are staged in memory in mutation
// order and committed as the longest FIFO prefix whose container
// barriers are satisfied, one fsync per batch. A container's write is
// posted at the commit that seals it and reaped at the next one, so a
// record whose container was still in flight at its batch's commit waits
// one more commit. The recovered state is that durable prefix: every
// write whose records it holds, none after. The paper acks a write from
// the NIC's battery-backed memory (§5.3 step 1) and loses none of it in a
// crash; this program keeps no NIC memory, open container or staged
// record across one, so acknowledged writes past the prefix are lost.
//
// Record frame (little-endian):
//
//	u32 payload length (fixed, walPayloadSize)
//	u32 CRC-32 (IEEE) of the payload
//	u8  kind
//	u64 seq        (monotonic from 1; 0 means "before any record")
//	u64 lba
//	u64 pbn
//	u64 container
//	u32 offset
//	u16 csize
//	u16 uncompressed length (append records; 0 elsewhere)
//	32B fingerprint
//
// csize and the uncompressed length share what used to be one u32 csize
// field (compressed sizes never exceeded 16 bits), so frames written
// before the length was logged decode with length 0; applying such an
// append fails recovery with ErrCorruptCheckpoint (see persist.go).
//
// Replay walks frames from offset 0 and stops cleanly at the first
// invalid frame (bad length, bad CRC, short read): a torn tail is the
// expected shape of a crash, not corruption to panic over. Records with
// seq <= the checkpoint's recorded seq are skipped, so a crash between
// checkpoint write and log truncation cannot double-apply mutations.

// WALKind tags one logged mutation.
type WALKind uint8

const (
	// WALAppend is a unique-chunk admission: lbatable Append + Hash-PBN
	// insert + per-PBN fingerprint. PBN records the allocated PBN so
	// replay can verify it re-derives the same allocation.
	WALAppend WALKind = iota + 1
	// WALMapLBA is an LBA-PBA (re)mapping with its refcount moves.
	WALMapLBA
	// WALRelocate moves a live chunk to a new container (GC).
	WALRelocate
	// WALRetire retires a fully-dead container (GC).
	WALRetire
	// WALDeleteFP drops a dead chunk's Hash-PBN entry (GC).
	WALDeleteFP
)

// String implements fmt.Stringer.
func (k WALKind) String() string {
	switch k {
	case WALAppend:
		return "append"
	case WALMapLBA:
		return "map-lba"
	case WALRelocate:
		return "relocate"
	case WALRetire:
		return "retire"
	case WALDeleteFP:
		return "delete-fp"
	default:
		return fmt.Sprintf("WALKind(%d)", int(k))
	}
}

const (
	walHeaderSize  = 8 // u32 length + u32 crc
	walPayloadSize = 1 + 8 + 8 + 8 + 8 + 4 + 2 + 2 + fingerprint.Size
	walFrameSize   = walHeaderSize + walPayloadSize
)

// WALRecord is one decoded log record.
type WALRecord struct {
	Kind      WALKind
	Seq       uint64
	LBA       uint64
	PBN       uint64
	Container uint64
	Offset    uint32
	CSize     uint32
	// RawSize is an appended chunk's uncompressed length. It and CSize
	// are 16-bit on the log, like the level-2 record they replay into.
	RawSize uint32
	FP      fingerprint.FP
}

func (r WALRecord) encode(dst []byte) {
	payload := dst[walHeaderSize:walFrameSize]
	payload[0] = byte(r.Kind)
	binary.LittleEndian.PutUint64(payload[1:], r.Seq)
	binary.LittleEndian.PutUint64(payload[9:], r.LBA)
	binary.LittleEndian.PutUint64(payload[17:], r.PBN)
	binary.LittleEndian.PutUint64(payload[25:], r.Container)
	binary.LittleEndian.PutUint32(payload[33:], r.Offset)
	binary.LittleEndian.PutUint16(payload[37:], uint16(r.CSize))
	binary.LittleEndian.PutUint16(payload[39:], uint16(r.RawSize))
	copy(payload[41:], r.FP[:])
	binary.LittleEndian.PutUint32(dst[0:], walPayloadSize)
	binary.LittleEndian.PutUint32(dst[4:], crc32.ChecksumIEEE(payload))
}

func decodeWALRecord(frame []byte) (WALRecord, bool) {
	if len(frame) < walFrameSize {
		return WALRecord{}, false
	}
	if binary.LittleEndian.Uint32(frame[0:]) != walPayloadSize {
		return WALRecord{}, false
	}
	payload := frame[walHeaderSize:walFrameSize]
	if binary.LittleEndian.Uint32(frame[4:]) != crc32.ChecksumIEEE(payload) {
		return WALRecord{}, false
	}
	var r WALRecord
	r.Kind = WALKind(payload[0])
	if r.Kind < WALAppend || r.Kind > WALDeleteFP {
		return WALRecord{}, false
	}
	r.Seq = binary.LittleEndian.Uint64(payload[1:])
	r.LBA = binary.LittleEndian.Uint64(payload[9:])
	r.PBN = binary.LittleEndian.Uint64(payload[17:])
	r.Container = binary.LittleEndian.Uint64(payload[25:])
	r.Offset = binary.LittleEndian.Uint32(payload[33:])
	r.CSize = uint32(binary.LittleEndian.Uint16(payload[37:]))
	r.RawSize = uint32(binary.LittleEndian.Uint16(payload[39:]))
	copy(r.FP[:], payload[41:])
	return r, true
}

// WALDevice is the durable byte store under a WAL. *os.File satisfies
// it; MemWALDevice provides an in-memory device with explicit crash and
// fault semantics for tests.
type WALDevice interface {
	io.WriterAt
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
}

var _ WALDevice = (*os.File)(nil)

// WALStats snapshots log activity.
type WALStats struct {
	// AppendedRecords counts records durably committed (written+synced).
	AppendedRecords uint64
	// ReplayedRecords counts records applied by Replay.
	ReplayedRecords uint64
	// Syncs counts fsync batches (one per commit with work to do).
	Syncs uint64
	// PendingRecords is the staged-but-not-yet-committed count.
	PendingRecords int
	// DurableBytes is the committed log length.
	DurableBytes int64
}

type stagedRec struct {
	rec WALRecord
	// barrier is the first container index at which the record may be
	// committed: engine.DurableContainers() >= barrier means every
	// container the record references is sealed and on the data SSD.
	barrier uint64
}

// WAL is one group-local write-ahead log. Like Server, it is
// single-owner: the server goroutine stages and commits; Stats reads
// only the log's atomic counters and is safe from any goroutine.
type WAL struct {
	dev    WALDevice
	closer io.Closer

	size    int64 // committed (durable) log length in bytes
	nextSeq uint64
	staged  []stagedRec

	// group, when non-nil, collects staged records so a multi-record
	// operation (a GC pass) commits atomically under one barrier.
	group []stagedRec
	inGrp bool

	// Activity counters: read by Stats and, once attached, by "wal.*".
	// pending and durableBytes follow len(staged)+len(group) and size.
	appended, replayed, syncs metrics.Counter
	pending, durableBytes     metrics.Gauge
	// obsFsync records each commit's fsync time; nil until Instrument.
	obsFsync *metrics.Histogram

	// fsyncStartNS is the wall-clock start of the in-flight device Sync,
	// 0 when none is running. The health plane's fsync-deadline watchdog
	// reads it via FsyncInFlight without taking any WAL locks.
	fsyncStartNS atomic.Int64
}

// NewWAL opens a WAL over dev, scanning any existing records to find the
// durable tail and the next sequence number. A torn or corrupt tail is
// ignored (the log ends at the last valid record).
func NewWAL(dev WALDevice) (*WAL, error) {
	if dev == nil {
		return nil, fmt.Errorf("core: nil WAL device")
	}
	w := &WAL{dev: dev, nextSeq: 1}
	off := int64(0)
	var frame [walFrameSize]byte
	for {
		n, err := dev.ReadAt(frame[:], off)
		if n < walFrameSize {
			break
		}
		rec, ok := decodeWALRecord(frame[:])
		if !ok {
			break
		}
		off += walFrameSize
		w.nextSeq = rec.Seq + 1
		if err != nil {
			break
		}
	}
	w.size = off
	w.publishGauges()
	return w, nil
}

// OpenWALFile opens (creating if absent) a file-backed WAL. Close the
// WAL to release the file handle.
func OpenWALFile(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: open wal: %w", err)
	}
	w, err := NewWAL(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.closer = f
	return w, nil
}

// Close releases the underlying device, if it is closable.
func (w *WAL) Close() error {
	if w.closer != nil {
		return w.closer.Close()
	}
	return nil
}

// Instrument publishes the log's counters and gauges through reg as
// "wal.*" (recovery's replay, which runs before observability can attach,
// is in them) and starts a "wal.fsync_ns" histogram of commit fsync times.
func (w *WAL) Instrument(reg *metrics.Registry) {
	reg.AttachCounter("wal.appended_records", &w.appended)
	reg.AttachCounter("wal.replayed_records", &w.replayed)
	reg.AttachGauge("wal.pending_records", &w.pending)
	reg.AttachGauge("wal.durable_bytes", &w.durableBytes)
	w.obsFsync = reg.Histogram("wal.fsync_ns")
}

// FsyncInFlight reports whether a device Sync is running right now and
// for how long. Lock-free (one atomic load), so the health watchdog can
// probe it on every tick without touching the commit path: a Sync that
// has been in flight past the probe deadline means the WAL device is
// hung, the stall the snapshot recorder most wants evidence of.
func (w *WAL) FsyncInFlight(now time.Time) (time.Duration, bool) {
	start := w.fsyncStartNS.Load()
	if start == 0 {
		return 0, false
	}
	d := now.Sub(time.Unix(0, start))
	if d < 0 {
		d = 0
	}
	return d, true
}

// Stats snapshots log counters.
func (w *WAL) Stats() WALStats {
	return WALStats{
		AppendedRecords: w.appended.Value(),
		ReplayedRecords: w.replayed.Value(),
		Syncs:           w.syncs.Value(),
		PendingRecords:  int(w.pending.Value()),
		DurableBytes:    int64(w.durableBytes.Value()),
	}
}

// LastSeq returns the highest sequence number assigned so far (0 when
// the log has never held a record).
func (w *WAL) LastSeq() uint64 { return w.nextSeq - 1 }

// ensureSeqAfter advances the sequence counter past seq. Recovery calls
// this with the checkpoint's covered sequence: a WAL truncated by that
// checkpoint rescans to sequence 1, and without realignment its fresh
// records would sit below the checkpoint mark and be skipped by the
// next replay.
func (w *WAL) ensureSeqAfter(seq uint64) {
	if w.nextSeq <= seq {
		w.nextSeq = seq + 1
	}
}

// stage assigns the next sequence number and queues the record. Records
// inside a group are held aside and merged by EndGroup.
func (w *WAL) stage(rec WALRecord, barrier uint64) {
	rec.Seq = w.nextSeq
	w.nextSeq++
	sr := stagedRec{rec: rec, barrier: barrier}
	if w.inGrp {
		w.group = append(w.group, sr)
	} else {
		w.staged = append(w.staged, sr)
	}
	w.pending.Set(float64(len(w.staged) + len(w.group)))
}

// BeginGroup opens an atomic record group: records staged until EndGroup
// commit together under the group's highest container barrier, so a
// multi-record operation (a GC pass) can never be half-replayed ahead of
// its data.
func (w *WAL) BeginGroup() { w.inGrp = true }

// EndGroup closes the group opened by BeginGroup.
func (w *WAL) EndGroup() {
	w.inGrp = false
	if len(w.group) == 0 {
		return
	}
	var maxBarrier uint64
	for i := range w.group {
		if w.group[i].barrier > maxBarrier {
			maxBarrier = w.group[i].barrier
		}
	}
	for i := range w.group {
		w.group[i].barrier = maxBarrier
	}
	w.staged = append(w.staged, w.group...)
	w.group = nil
}

// commit durably appends the longest staged prefix whose container
// barriers are satisfied: every record referencing a container below
// durableContainers is eligible. One device write and one fsync cover
// the whole batch. On error nothing is consumed; a later commit retries
// at the same offset, overwriting any partially written bytes.
func (w *WAL) commit(durableContainers uint64) error {
	n := 0
	for n < len(w.staged) && w.staged[n].barrier <= durableContainers {
		n++
	}
	if n == 0 {
		w.publishGauges()
		return nil
	}
	buf := make([]byte, n*walFrameSize)
	for i := 0; i < n; i++ {
		w.staged[i].rec.encode(buf[i*walFrameSize:])
	}
	wrote, err := w.dev.WriteAt(buf, w.size)
	if err != nil {
		return fmt.Errorf("core: wal append: %w", err)
	}
	if wrote < len(buf) {
		return fmt.Errorf("core: wal append: short write (%d of %d bytes)", wrote, len(buf))
	}
	t0 := time.Now()
	w.fsyncStartNS.Store(t0.UnixNano())
	err = w.dev.Sync()
	w.fsyncStartNS.Store(0)
	if err != nil {
		return fmt.Errorf("core: wal sync: %w", err)
	}
	syncNS := time.Since(t0).Nanoseconds()

	w.size += int64(len(buf))
	w.staged = append(w.staged[:0], w.staged[n:]...)
	w.appended.Add(uint64(n))
	w.syncs.Inc()
	if w.obsFsync != nil {
		w.obsFsync.Observe(float64(syncNS))
	}
	w.publishGauges()
	return nil
}

func (w *WAL) publishGauges() {
	w.pending.Set(float64(len(w.staged) + len(w.group)))
	w.durableBytes.Set(float64(w.size))
}

// Replay walks the durable log from the beginning, applying every valid
// record with seq > afterSeq, and returns how many were applied. It
// stops cleanly — no error — at the first torn or corrupt frame; a
// damaged tail is what a crash leaves behind. An apply error aborts the
// replay and is returned.
func (w *WAL) Replay(afterSeq uint64, apply func(WALRecord) error) (int, error) {
	off := int64(0)
	applied := 0
	var frame [walFrameSize]byte
	for {
		n, _ := w.dev.ReadAt(frame[:], off)
		if n < walFrameSize {
			break
		}
		rec, ok := decodeWALRecord(frame[:])
		if !ok {
			break
		}
		off += walFrameSize
		if rec.Seq <= afterSeq {
			continue
		}
		if err := apply(rec); err != nil {
			return applied, fmt.Errorf("core: wal replay seq %d (%s): %w", rec.Seq, rec.Kind, err)
		}
		applied++
	}
	w.replayed.Add(uint64(applied))
	return applied, nil
}

// Reset truncates the log (the checkpoint-truncation rule: once a
// checkpoint persists every mutation's effect, the records are dead
// weight). Staged records are dropped too — the checkpoint that
// triggered the reset captured their effects, and its recorded sequence
// number covers them.
func (w *WAL) Reset() error {
	if err := w.dev.Truncate(0); err != nil {
		return fmt.Errorf("core: wal truncate: %w", err)
	}
	if err := w.dev.Sync(); err != nil {
		return fmt.Errorf("core: wal truncate sync: %w", err)
	}
	w.size = 0
	w.staged = w.staged[:0]
	w.group = nil
	w.publishGauges()
	return nil
}

// --- In-memory WAL device (tests, benchmarks) ---

// MemWALDevice is an in-memory WALDevice with explicit durability: bytes
// written become durable only when Sync succeeds, Crash discards
// everything after the last successful sync, and faults (failed syncs,
// short writes) can be armed to exercise failure paths.
type MemWALDevice struct {
	mu      sync.Mutex
	buf     []byte // live contents (includes unsynced bytes)
	durable []byte // contents as of the last successful Sync

	failSyncs   int
	shortWrites int
	faultErr    error
}

// NewMemWALDevice returns an empty in-memory WAL device.
func NewMemWALDevice() *MemWALDevice { return &MemWALDevice{} }

// errWALFault is the default injected-fault error.
var errWALFault = errors.New("core: injected WAL device fault")

// InjectFaults arms the next nShortWrites WriteAt calls to write only
// half their payload and fail, and the next nFailSyncs Sync calls to
// fail without making data durable. err defaults to a generic fault.
func (d *MemWALDevice) InjectFaults(nShortWrites, nFailSyncs int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		err = errWALFault
	}
	d.shortWrites, d.failSyncs, d.faultErr = nShortWrites, nFailSyncs, err
}

// WriteAt implements WALDevice.
func (d *MemWALDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	short := false
	if d.shortWrites > 0 {
		d.shortWrites--
		short = true
		p = p[:len(p)/2]
	}
	end := off + int64(len(p))
	if int64(len(d.buf)) < end {
		grown := make([]byte, end)
		copy(grown, d.buf)
		d.buf = grown
	}
	copy(d.buf[off:end], p)
	if short {
		return len(p), d.faultErr
	}
	return len(p), nil
}

// ReadAt implements WALDevice, reading the live (possibly unsynced)
// contents — matching a file read from the owning process.
func (d *MemWALDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off >= int64(len(d.buf)) {
		return 0, io.EOF
	}
	n := copy(p, d.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Sync implements WALDevice: the live contents become the durable image.
func (d *MemWALDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failSyncs > 0 {
		d.failSyncs--
		return d.faultErr
	}
	d.durable = append(d.durable[:0], d.buf...)
	return nil
}

// Truncate implements WALDevice. Truncation is treated as immediately
// visible but, like writes, durable only after Sync.
func (d *MemWALDevice) Truncate(size int64) (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("core: negative truncate %d", size)
	}
	if int64(len(d.buf)) > size {
		d.buf = d.buf[:size]
	} else {
		for int64(len(d.buf)) < size {
			d.buf = append(d.buf, 0)
		}
	}
	return nil
}

// Crash discards everything after the last successful Sync, simulating
// power loss. The device remains usable (recovery opens it again).
func (d *MemWALDevice) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buf = append(d.buf[:0], d.durable...)
}

// Len returns the live contents length.
func (d *MemWALDevice) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.buf)
}

// Corrupt flips a byte at off in the live and durable images, for
// torn-record tests.
func (d *MemWALDevice) Corrupt(off int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < int64(len(d.buf)) {
		d.buf[off] ^= 0xFF
	}
	if off < int64(len(d.durable)) {
		d.durable[off] ^= 0xFF
	}
}
