// Package nic models the server's network interface cards.
//
// Two variants exist (§5.4):
//
//   - Plain: the baseline's NIC. It terminates TCP/storage protocol in
//     hardware but DMA-writes every client byte into host memory, where
//     software takes over.
//   - FIDR: the paper's data-reduction NIC. It buffers client writes in
//     NIC memory, hashes chunks with on-NIC SHA-256 cores, answers reads
//     that hit the in-NIC write buffer, and schedules batches of unique
//     chunks for direct P2P transfer to the Compression Engines — host
//     memory sees only hash values and per-chunk flags.
package nic

import (
	"errors"
	"fmt"
	"time"

	"fidr/internal/bufpool"
	"fidr/internal/chunk"
	"fidr/internal/fingerprint"
	"fidr/internal/lanes"
	"fidr/internal/metrics"
)

// WriteEntry is one buffered chunk with its metadata. Chunks are 4 KB
// under fixed chunking and 1..Max bytes under CDC.
type WriteEntry struct {
	LBA  uint64
	Data []byte
	// Size is len(Data) at buffering time. It survives HashAll's
	// Data-stripping (the host sees hashes and sizes, never bytes), so
	// dedup accounting can attribute the right byte count per chunk
	// under variable-size chunking.
	Size int
	// FP is the chunk fingerprint; computed by the NIC hash cores in
	// FIDR, by the FPGA array in the baseline.
	FP fingerprint.FP
	// Hashed records whether FP is valid.
	Hashed bool
}

// Config configures a FIDR NIC.
type Config struct {
	// BufferBytes bounds the in-NIC chunk buffer (battery-backed NIC
	// DRAM; writes are acked once buffered, §7.6.1).
	BufferBytes int
	// HashLanes is the modeled SHA-256 core count; <= 0 selects the
	// GOMAXPROCS-derived default.
	HashLanes int
	// Chunking sizes the in-NIC chunker BufferStream cuts byte streams
	// with. The zero value is fixed 4-KB chunking (the chunker with
	// Min = Avg = Max); ModeCDC cuts content-defined, variable-size
	// chunks.
	Chunking chunk.Config
}

// ErrBufferFull is returned when the in-NIC buffer cannot accept a write.
var ErrBufferFull = errors.New("nic: in-NIC buffer full")

// Stats counts NIC activity.
type Stats struct {
	WritesBuffered uint64
	BytesBuffered  uint64
	HashOps        uint64
	HashBytes      uint64
	ReadLookups    uint64
	ReadHits       uint64
	BatchesMade    uint64
	UniqueSent     uint64
	DuplicateDrops uint64
}

// counters is a NIC's only storage of its activity, embedded by both
// variants and read by Stats and, once attached, by "nic.*". The baseline
// NIC moves the two write counters only.
type counters struct {
	writes, bytes                 metrics.Counter
	hashOps, hashBytes            metrics.Counter
	readLookups, readHits         metrics.Counter
	batches, uniqueSent, dupDrops metrics.Counter
	// busyNS accumulates hash-section wall time; its windowed rate is the
	// NIC's duty cycle in the sampler. hashLaneBusyNS sums per-lane busy
	// time across the SHA-core array (exceeds busyNS when lanes overlap).
	busyNS, hashLaneBusyNS metrics.Counter
	// Configured lane count and in-NIC buffer occupancy.
	hashLanesG, queueDepth, bufferedBytes metrics.Gauge
}

// Stats returns a snapshot of NIC counters.
func (c *counters) Stats() Stats {
	return Stats{
		WritesBuffered: c.writes.Value(),
		BytesBuffered:  c.bytes.Value(),
		HashOps:        c.hashOps.Value(),
		HashBytes:      c.hashBytes.Value(),
		ReadLookups:    c.readLookups.Value(),
		ReadHits:       c.readHits.Value(),
		BatchesMade:    c.batches.Value(),
		UniqueSent:     c.uniqueSent.Value(),
		DuplicateDrops: c.dupDrops.Value(),
	}
}

// Instrument publishes the NIC's counters through reg under "nic.*".
func (c *counters) Instrument(reg *metrics.Registry) {
	reg.AttachCounter("nic.writes_buffered", &c.writes)
	reg.AttachCounter("nic.bytes_buffered", &c.bytes)
	reg.AttachCounter("nic.hash_ops", &c.hashOps)
	reg.AttachCounter("nic.read_lookups", &c.readLookups)
	reg.AttachCounter("nic.read_hits", &c.readHits)
	reg.AttachCounter("nic.batches_made", &c.batches)
	reg.AttachCounter("nic.unique_sent", &c.uniqueSent)
	reg.AttachCounter("nic.duplicate_drops", &c.dupDrops)
	reg.AttachCounter("nic.busy_ns", &c.busyNS)
	reg.AttachCounter("nic.hash_lane_busy_ns", &c.hashLaneBusyNS)
	reg.AttachGauge("nic.hash_lanes", &c.hashLanesG)
	reg.AttachGauge("nic.queue_depth", &c.queueDepth)
	reg.AttachGauge("nic.buffered_bytes", &c.bufferedBytes)
}

// FIDR is the data-reduction NIC.
type FIDR struct {
	// bufferCap bounds the in-NIC chunk buffer in bytes (the NIC's
	// battery-backed DRAM; writes are acked once buffered, §7.6.1).
	bufferCap int
	buffer    []WriteEntry
	buffered  int
	// lbaIndex finds the most recent buffered entry per LBA for the
	// read fast path (§5.3 read step 2).
	lbaIndex map[uint64]int
	// hashLanes is the modeled SHA-256 core count: HashAll fans the
	// batch across this many worker goroutines (1 = serial).
	hashLanes int
	// chunker cuts byte streams into chunks for BufferStream. bounds is
	// its reusable boundary scratch (no per-call allocation).
	chunker *chunk.CDC
	bounds  []int
	// Batch scratch behind HashAll's and ScheduleBatch's results, each
	// valid until the next call of the method it serves.
	pending []int
	hashed  []WriteEntry
	unique  []WriteEntry

	counters
}

// New creates a FIDR NIC from cfg.
func New(cfg Config) (*FIDR, error) {
	if cfg.BufferBytes < 4096 {
		return nil, fmt.Errorf("nic: buffer capacity %d too small", cfg.BufferBytes)
	}
	n := &FIDR{bufferCap: cfg.BufferBytes, lbaIndex: make(map[uint64]int)}
	hl := 1
	if cfg.HashLanes != 0 {
		hl = cfg.HashLanes
	}
	n.SetHashLanes(hl)
	c, err := cfg.Chunking.NewChunker()
	if err != nil {
		return nil, fmt.Errorf("nic: %w", err)
	}
	if c.Max > cfg.BufferBytes {
		return nil, fmt.Errorf("nic: max chunk %d exceeds buffer capacity %d", c.Max, cfg.BufferBytes)
	}
	n.chunker = c
	return n, nil
}

// NewFIDR creates a FIDR NIC with the given buffer capacity in bytes.
// The NIC starts with one hash lane (serial); SetHashLanes widens the
// SHA-core array.
func NewFIDR(bufferCap int) (*FIDR, error) {
	return New(Config{BufferBytes: bufferCap})
}

// SetHashLanes sets the modeled SHA-256 core count HashAll fans out
// across. n <= 0 selects the GOMAXPROCS-derived default. Results are
// byte-identical at any lane count; only wall time changes.
func (n *FIDR) SetHashLanes(count int) {
	n.hashLanes = lanes.Normalize(count)
	n.hashLanesG.Set(float64(n.hashLanes))
}

// HashLanes returns the configured SHA-core lane count.
func (n *FIDR) HashLanes() int { return n.hashLanes }

// BufferWrite accepts one chunk into the in-NIC buffer. The data is
// copied (the NIC owns its buffer memory). Returns ErrBufferFull when the
// buffer cannot hold the chunk; the caller must drain a batch first.
func (n *FIDR) BufferWrite(lba uint64, data []byte) error {
	if n.buffered+len(data) > n.bufferCap {
		return ErrBufferFull
	}
	cp := bufpool.Get(len(data))
	copy(cp, data)
	n.buffer = append(n.buffer, WriteEntry{LBA: lba, Data: cp, Size: len(data)})
	n.lbaIndex[lba] = len(n.buffer) - 1
	n.buffered += len(data)
	n.writes.Inc()
	n.bytes.Add(uint64(len(data)))
	n.queueDepth.Set(float64(len(n.buffer)))
	n.bufferedBytes.Set(float64(n.buffered))
	return nil
}

// BufferStream runs the NIC's chunker over a stream segment beginning
// at absolute stream byte offset and buffers the resulting chunks, each
// addressed by its extent (stream byte offset of the chunk start; a
// fixed-mode caller passes one chunk and its chunk index, which the
// single cut leaves untouched). It returns the end offsets in data of
// the chunks it buffered — the last one is the number of bytes consumed
// — in scratch that stays valid until the next call. When the in-NIC
// buffer fills mid-segment the cuts stop at the last buffered chunk
// with ErrBufferFull, and the caller resumes with offset+consumed and
// data[consumed:] after draining a batch — the chunker's boundary rule
// depends only on bytes at and after a boundary, so the resumed call
// reproduces the remaining boundaries exactly.
//
// Segmentation is the caller's: the final chunk of each call ends at
// len(data), so callers should feed segments at their own record or
// batch boundaries (the bench harness uses the backup-generation
// segments the trace provides).
func (n *FIDR) BufferStream(offset uint64, data []byte) (cuts []int, err error) {
	n.bounds = n.chunker.AppendBoundaries(n.bounds[:0], data)
	prev := 0
	for i, b := range n.bounds {
		if err := n.BufferWrite(offset+uint64(prev), data[prev:b]); err != nil {
			return n.bounds[:i], err
		}
		prev = b
	}
	return n.bounds, nil
}

// Buffered returns the number of buffered chunks.
func (n *FIDR) Buffered() int { return len(n.buffer) }

// BufferedBytes returns the bytes held in the in-NIC buffer.
func (n *FIDR) BufferedBytes() int { return n.buffered }

// HashAll runs the NIC's SHA-256 core array over unhashed buffered
// chunks and returns the (LBA, fingerprint) pairs to send to the host —
// the only write-path data that touches host memory in FIDR, so the
// returned entries carry no chunk bytes (Data is nil; the data itself
// stays in NIC memory until ScheduleBatch).
//
// Unhashed chunks fan out across the configured hash lanes with a
// deterministic chunk->lane assignment; fingerprints and stats are
// committed in buffer order after the join, so the result is
// byte-identical to the serial path at any lane count. The returned
// slice is NIC scratch, valid until the next HashAll.
func (n *FIDR) HashAll() []WriteEntry {
	start := time.Now()
	pending := n.pending[:0]
	for i := range n.buffer {
		if !n.buffer[i].Hashed {
			pending = append(pending, i)
		}
	}
	n.pending = pending
	if len(pending) > 0 {
		k := lanes.Clamp(n.hashLanes, len(pending))
		busy := lanes.Run(len(pending), k, func(_, p int) {
			e := &n.buffer[pending[p]]
			e.FP = fingerprint.Of(e.Data)
			e.Hashed = true
		})
		// Counters commit once per batch, after the join.
		var hashBytes uint64
		for _, i := range pending {
			hashBytes += uint64(len(n.buffer[i].Data))
		}
		n.hashOps.Add(uint64(len(pending)))
		n.hashBytes.Add(hashBytes)
		n.busyNS.Add(uint64(time.Since(start)))
		n.hashLaneBusyNS.Add(uint64(lanes.Total(busy)))
	}
	n.hashed = append(n.hashed[:0], n.buffer...)
	for i := range n.hashed {
		n.hashed[i].Data = nil
	}
	return n.hashed
}

// LookupRead serves a read from the in-NIC write buffer if the LBA is
// still buffered, returning the freshest data for that LBA.
func (n *FIDR) LookupRead(lba uint64) ([]byte, bool) {
	n.readLookups.Inc()
	i, ok := n.lbaIndex[lba]
	if !ok {
		return nil, false
	}
	n.readHits.Inc()
	return n.buffer[i].Data, true
}

// ScheduleBatch consumes the buffer given per-chunk uniqueness flags
// (computed by the host's table lookup) and returns the batch of unique
// chunks for the Compression Engines. Duplicate chunks are dropped from
// the NIC buffer — they never cross PCIe, which is FIDR's bandwidth win.
// flags must align with the entries returned by HashAll. The returned
// slice is NIC scratch, valid until the next ScheduleBatch; the chunk
// buffers it points at are the caller's.
func (n *FIDR) ScheduleBatch(flags []bool) ([]WriteEntry, error) {
	if len(flags) != len(n.buffer) {
		return nil, fmt.Errorf("nic: %d flags for %d buffered chunks", len(flags), len(n.buffer))
	}
	unique := n.unique[:0]
	for i, isUnique := range flags {
		if isUnique {
			unique = append(unique, n.buffer[i])
		} else {
			// Duplicates never leave the NIC; their buffer memory is
			// recycled immediately. Unique chunks transfer ownership to
			// the caller, who releases them after container packing.
			bufpool.Put(n.buffer[i].Data)
		}
	}
	n.uniqueSent.Add(uint64(len(unique)))
	n.dupDrops.Add(uint64(len(flags) - len(unique)))
	n.batches.Inc()
	n.unique = unique
	n.buffer = n.buffer[:0]
	n.buffered = 0
	clear(n.lbaIndex)
	n.queueDepth.Set(0)
	n.bufferedBytes.Set(0)
	return unique, nil
}

// Plain is the baseline NIC: no buffering or hashing support; it only
// counts traffic it DMA-writes toward host memory.
type Plain struct{ counters }

// NewPlain creates a baseline NIC.
func NewPlain() *Plain { return &Plain{} }

// ReceiveWrite counts one client chunk DMA'd to host memory.
func (n *Plain) ReceiveWrite(data []byte) {
	n.writes.Inc()
	n.bytes.Add(uint64(len(data)))
}
