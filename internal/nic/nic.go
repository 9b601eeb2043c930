// Package nic models the server's network interface cards.
//
// Two variants exist (§5.4):
//
//   - Plain: the baseline's NIC. It terminates TCP/storage protocol in
//     hardware but DMA-writes every client byte into host memory, where
//     software takes over; it only counts those writes.
//   - FIDR: the paper's data-reduction NIC. It buffers client writes in
//     NIC memory, hashes chunks with on-NIC SHA-256 cores as they arrive,
//     answers reads that hit either in-NIC buffer, and schedules
//     batches of unique chunks for direct P2P transfer to the Compression
//     Engines — host memory sees only hash values and per-chunk flags.
//
// The FIDR NIC's double buffer also serves as the baseline's host request
// buffer: the same fill, hash, tip, read lookup and release, in host
// memory, its hash job standing for the FPGA hash array and its counters
// unpublished (the baseline reports Plain's). The baseline commits each
// batch right after its Join, so it holds one only after a failed commit.
//
// The FIDR NIC double-buffers: one buffer fills while the other holds the
// batch tipped before it, hashed and waiting for its commit; a read looks
// in both, the filling one first (§5.3 read step 2). Each buffer owns its
// chunk bytes: one arena, allocated at New, that every entry's Data views
// and that ScheduleBatch empties when it consumes the buffer. The SHA-core
// array is a hash job per buffer on the server's lanes.Pool: helpers hash
// chunks as they arrive, Join's caller the rest.
package nic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fidr/internal/fingerprint"
	"fidr/internal/lanes"
	"fidr/internal/metrics"
)

// WriteEntry is one buffered chunk with its metadata: whatever the
// server's chunker cut, 1..Max bytes (exactly the chunk size when Min = Max).
type WriteEntry struct {
	LBA  uint64
	Data []byte
	// Size is len(Data) at buffering time. It survives the Data-stripping
	// of the view Head returns (the host sees hashes and sizes, never
	// bytes), so dedup accounting can attribute the right byte count per
	// chunk under variable-size chunking.
	Size int
	// FP is the chunk fingerprint, complete for the whole batch once
	// Join returns.
	FP fingerprint.FP
}

// Config configures a FIDR NIC.
type Config struct {
	// BufferBytes bounds each in-NIC chunk buffer (battery-backed NIC
	// DRAM; writes are acked once buffered, §7.6.1); both allocate it
	// whole at New.
	BufferBytes int
	// HashLanes is the modeled SHA-256 core count; <= 0 selects the
	// GOMAXPROCS-derived default (lanes.Default), as in core.Config.
	HashLanes int
	// BatchChunks is the chunk count a batch usually holds: each buffer's
	// LBA index is sized for it at New. <= 0 leaves the indexes to grow.
	BatchChunks int
}

// MinBufferBytes is the smallest Config.BufferBytes New accepts.
const MinBufferBytes = 4096

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
	// busyNS accumulates tip-to-join wall time; its windowed rate is the
	// NIC's duty cycle in the sampler. hashLaneBusyNS sums the time of
	// every hash, whichever goroutine ran it (it can exceed busyNS, which
	// does not see the hashing done before a tip).
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

// wakeBacklog is how many unclaimed chunks of a buffer start a helper
// when none is resident: an eighth of the default 64-chunk batch.
const wakeBacklog = 8

// buffer is one half of the NIC's chunk memory: the filling buffer, or the
// held batch.
type buffer struct {
	entries []WriteEntry
	// arena holds the entries' chunk bytes back to back, each entry's Data
	// a capped view of it. It is allocated at New with the buffer's whole
	// capacity, so it never moves, and emptied with entries. Only the
	// owner touches its header; a helper reads the bytes of posted entries.
	arena []byte
	// view is entries without the chunk bytes — what Head hands the host —
	// rebuilt by Join, valid until the batch is consumed. Each buffer has
	// its own, so the held batch's view survives the next batch's hashing.
	view []WriteEntry
	// index finds the most recent entry per LBA for the read fast path
	// (§5.3 read step 2), from the first write until ScheduleBatch
	// consumes the buffer.
	index map[uint64]int

	// job's item i fingerprints entries[i] on whichever goroutine claimed
	// it; mu orders the owner's appends with its read of the chunk and
	// write of the FP (the bytes are hashed outside it).
	job *lanes.Job
	mu  sync.Mutex
}

func newBuffer(chunks, capBytes int) *buffer {
	g := &buffer{arena: make([]byte, 0, capBytes), index: make(map[uint64]int, max(chunks, 0))}
	g.job = lanes.NewJob(lanes.Ahead, g.hashEntry)
	return g
}

// hashEntry fingerprints entry i.
func (g *buffer) hashEntry(i int) {
	g.mu.Lock()
	data := g.entries[i].Data
	g.mu.Unlock()
	fp := fingerprint.Of(data)
	g.mu.Lock()
	g.entries[i].FP = fp
	g.mu.Unlock()
}

// FIDR is the data-reduction NIC.
//
// Its chunk memory is two buffers, swapped at each join. The filling
// buffer takes writes; the pool's helpers hash it while it fills. The
// other holds at most one batch: tipped and hashed, waiting for the
// server's table lookup and ScheduleBatch. Both answer reads until
// ScheduleBatch consumes them. Tip starts a batch's tip, and with a batch
// held sets helpers on the fill's last chunks while the server commits the
// held one; Join then detaches the fill into the emptied slot and finishes
// its hashes. BufferBytes bounds each buffer.
type FIDR struct {
	// bufferCap bounds one buffer's chunk bytes (the NIC's battery-backed
	// DRAM; writes are acked once buffered, §7.6.1).
	bufferCap int
	// fill takes writes; back is the other buffer: the held batch while
	// held is set, otherwise the empty spare the next Join swaps in.
	fill, back *buffer
	held       bool
	// hashLanes is the modeled SHA-256 core count: up to hashLanes-1 of
	// the pool's helpers on a buffer, plus Join's caller. hashStart is
	// when the last tip started.
	hashLanes int
	pool      *lanes.Pool
	hashStart time.Time
	// unique backs ScheduleBatch's result, valid until its next call.
	unique []WriteEntry

	counters
}

// New creates a FIDR NIC from cfg.
func New(cfg Config) (*FIDR, error) {
	if cfg.BufferBytes < MinBufferBytes {
		return nil, fmt.Errorf("nic: buffer capacity %d too small", cfg.BufferBytes)
	}
	n := &FIDR{bufferCap: cfg.BufferBytes, fill: newBuffer(cfg.BatchChunks, cfg.BufferBytes),
		back: newBuffer(cfg.BatchChunks, cfg.BufferBytes), pool: lanes.NewPool()}
	n.SetHashLanes(cfg.HashLanes)
	return n, nil
}

// SetHashLanes sets the modeled SHA-256 core count; <= 0 selects the
// GOMAXPROCS-derived default. Results are byte-identical at any count.
func (n *FIDR) SetHashLanes(count int) {
	n.hashLanes = lanes.Normalize(count)
	n.hashLanesG.Set(float64(n.hashLanes))
}

// SetPool moves the NIC's hashing onto p, its server's pool, before a write.
func (n *FIDR) SetPool(p *lanes.Pool) { n.pool = p }

// HashLanes returns the configured SHA-core lane count.
func (n *FIDR) HashLanes() int { return n.hashLanes }

// publishOccupancy sets the occupancy gauges: chunks and bytes in NIC
// memory, the filling buffer and the held batch together (the spare is
// empty).
func (n *FIDR) publishOccupancy() {
	n.queueDepth.Set(float64(len(n.fill.entries) + len(n.back.entries)))
	n.bufferedBytes.Set(float64(len(n.fill.arena) + len(n.back.arena)))
}

// BufferWrite accepts one chunk into the filling buffer. The data is
// copied into the buffer's arena (the NIC owns its buffer memory). Returns
// ErrBufferFull when the buffer cannot hold the chunk; the caller must
// drain a batch first. The chunk is posted to the buffer's hash job (see
// wakeBacklog).
func (n *FIDR) BufferWrite(lba uint64, data []byte) error {
	g := n.fill
	off := len(g.arena)
	if off+len(data) > n.bufferCap {
		return ErrBufferFull
	}
	// The copy runs outside mu: helpers read only posted entries' bytes.
	g.arena = append(g.arena, data...)
	end := len(g.arena)
	g.mu.Lock()
	g.entries = append(g.entries, WriteEntry{LBA: lba, Data: g.arena[off:end:end], Size: len(data)})
	g.mu.Unlock()
	n.pool.Post(g.job, len(g.entries), n.hashLanes, wakeBacklog)
	g.index[lba] = len(g.entries) - 1
	n.writes.Inc()
	n.bytes.Add(uint64(len(data)))
	n.publishOccupancy()
	return nil
}

// Buffered returns the number of chunks in the filling buffer.
func (n *FIDR) Buffered() int { return len(n.fill.entries) }

// Held reports whether a batch is held: tipped and hashed, its
// ScheduleBatch still to run.
func (n *FIDR) Held() bool { return n.held }

// Tip starts the filling buffer's tip. With a batch held it also starts
// helpers for the chunks the resident ones have not reached, so they hash
// while the caller commits the held batch; Join follows once that batch
// is consumed. A caller whose commit fails skips Join: the fill stays
// attached, and the next tip starts over.
func (n *FIDR) Tip() {
	n.hashStart = time.Now()
	if n.held {
		n.pool.Post(n.fill.job, len(n.fill.entries), n.hashLanes, 1)
	}
}

// Join detaches the filling buffer into the held slot, which must be
// empty, and swaps the spare in for the writes that follow. It completes
// the batch's hashes (lanes.Job.Join), commits the counters once, builds
// the data-stripped view for Head and returns how many chunks the batch
// holds. Every fingerprint is a pure function of its chunk, so the result
// is byte-identical at any lane count and any arrival timing. busy_ns
// covers tip to join. The held chunks keep answering reads, behind the
// filling buffer, until ScheduleBatch consumes them.
func (n *FIDR) Join() int {
	if n.held {
		panic("nic: Join with a batch held")
	}
	g := n.fill
	n.fill, n.back, n.held = n.back, g, true
	busy := g.job.Join()
	if len(g.entries) > 0 {
		n.hashOps.Add(uint64(len(g.entries)))
		n.hashBytes.Add(uint64(len(g.arena)))
		n.busyNS.Add(uint64(time.Since(n.hashStart)))
		n.hashLaneBusyNS.Add(uint64(busy))
	}
	g.view = append(g.view[:0], g.entries...)
	for i := range g.view {
		g.view[i].Data = nil
	}
	return len(g.view)
}

// Head returns the held batch's hashed, data-stripped entries — the
// (LBA, fingerprint) pairs sent to the host, the only write-path data that
// touches host memory in FIDR, and what its ScheduleBatch flags must align
// with — or nil when none is held. Valid until that ScheduleBatch.
func (n *FIDR) Head() []WriteEntry {
	if !n.held {
		return nil
	}
	return n.back.view
}

// HeldData returns the bytes of the held batch's entry i, for the engine to
// compress ahead of ScheduleBatch. Valid until that ScheduleBatch.
func (n *FIDR) HeldData(i int) []byte { return n.back.entries[i].Data }

// LookupRead serves a read from NIC memory if the LBA is buffered there,
// returning the freshest data for that LBA: the filling buffer's, else the
// held batch's.
func (n *FIDR) LookupRead(lba uint64) ([]byte, bool) {
	n.readLookups.Inc()
	g := n.fill
	i, ok := g.index[lba]
	if !ok && n.held {
		g = n.back
		i, ok = g.index[lba]
	}
	if !ok {
		return nil, false
	}
	n.readHits.Inc()
	return g.entries[i].Data, true
}

// ScheduleBatch consumes the held batch — the filling buffer when none is
// held — given per-chunk uniqueness flags (computed by the host's table
// lookup) and returns the batch of unique chunks for the Compression
// Engines. Duplicate chunks are dropped from NIC memory — they never cross
// PCIe, which is FIDR's bandwidth win — and no chunk of the batch answers
// reads after it. flags must align with the entries Head returned (or the
// filling buffer's, when none is held); on the filling buffer it first
// stops its hash job and waits for the hashes in flight, so no chunk is
// overwritten while one is read. The returned slice is NIC scratch, valid
// until the next ScheduleBatch; its Data are views of the emptied arena,
// valid until the next BufferWrite.
func (n *FIDR) ScheduleBatch(flags []bool) ([]WriteEntry, error) {
	g := n.fill
	if n.held {
		g = n.back
	}
	if len(flags) != len(g.entries) {
		return nil, fmt.Errorf("nic: %d flags for %d buffered chunks", len(flags), len(g.entries))
	}
	g.job.Stop()
	unique := n.unique[:0]
	for i, isUnique := range flags {
		if isUnique {
			unique = append(unique, g.entries[i])
		}
	}
	n.uniqueSent.Add(uint64(len(unique)))
	n.dupDrops.Add(uint64(len(flags) - len(unique)))
	n.batches.Inc()
	n.unique = unique
	g.entries, g.arena = g.entries[:0], g.arena[:0]
	clear(g.index)
	n.held = false
	n.publishOccupancy()
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
