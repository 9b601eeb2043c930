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
// batch right after its Detach, so it holds one only after a failed commit.
//
// The FIDR NIC double-buffers: one buffer fills while the other holds the
// batch tipped before it; a read looks in both, the filling one first
// (§5.3 read step 2). The SHA-core array is a hash job per buffer on the
// server's lanes.Pool: helpers hash chunks as they arrive and go on after
// the tip, and the host's lookup of an entry (HeldFP) hashes what they
// have not reached.
package nic

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
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
	// FP is the chunk fingerprint: in a view Head returned, set for entry
	// i once HeldFP(i) has returned; in ScheduleBatch's result, always.
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
	// BatchChunks is the most chunks a buffer holds: each buffer's slot
	// array and LBA index are sized for it at New, and a write past it is
	// ErrBufferFull. <= 0 sizes them for BufferBytes/MinBufferBytes.
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
	// busyNS sums each batch's wall time from its tip to its last
	// fingerprint (0 if hashed before the tip): the sampler's duty cycle.
	// hashLaneBusyNS sums every hash's time, whichever goroutine ran it
	// (it can exceed busyNS, which does not see hashing before a tip).
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

// epoch anchors the monotonic stamps of a buffer's tip and last hash.
var epoch = time.Now()

// slot is one buffered chunk. The owner writes its entry before posting
// the slot to the buffer's hash job; the goroutine that claims it reads
// the bytes, writes FP, then sets ready. Nothing reads FP before ready.
type slot struct {
	WriteEntry
	ready atomic.Bool
}

// buffer is one half of the NIC's chunk memory: the fill or the held batch.
type buffer struct {
	// slots[:n] are the buffered chunks, their Data capped views of arena,
	// which holds the chunk bytes back to back. Both are allocated whole
	// at New, so they never move, and are emptied together. Only the owner
	// touches their headers; a helper reads and hashes posted slots.
	slots []slot
	n     int
	arena []byte
	// view is the entries without the chunk bytes, what Head hands the
	// host: built by Detach, its FPs set by HeldFP.
	view []WriteEntry
	// index finds the most recent entry per LBA for the read fast path
	// (§5.3 read step 2) until ScheduleBatch consumes the buffer.
	index map[uint64]int

	// job's item i hashes slot i. tipAt is when the last tip started,
	// lastFP when a fingerprint was last written (either of two at once).
	job    *lanes.Job
	tipAt  int64
	lastFP atomic.Int64
}

func newBuffer(chunks, capBytes int) *buffer {
	if chunks <= 0 {
		chunks = capBytes / MinBufferBytes
	}
	g := &buffer{slots: make([]slot, chunks), arena: make([]byte, 0, capBytes),
		index: make(map[uint64]int, chunks)}
	g.job = lanes.NewJob(lanes.Ahead, g.hashEntry)
	return g
}

// hashEntry fingerprints slot i.
func (g *buffer) hashEntry(i int) {
	s := &g.slots[i]
	s.FP = fingerprint.Of(s.Data)
	s.ready.Store(true)
	g.lastFP.Store(int64(time.Since(epoch)))
}

// FIDR is the data-reduction NIC. Its chunk memory is two buffers, swapped
// at each Detach: the fill, and the batch held for the server's table
// lookups until ScheduleBatch consumes it.
type FIDR struct {
	// bufferCap bounds one buffer's chunk bytes (the NIC's battery-backed
	// DRAM; writes are acked once buffered, §7.6.1).
	bufferCap int
	// fill takes writes; back is the other buffer: the held batch while
	// held is set, otherwise the empty spare the next Detach swaps in.
	fill, back *buffer
	held       bool
	// hashLanes is the modeled SHA-256 core count: up to hashLanes-1 of
	// the pool's helpers on a buffer, plus the host caller of HeldFP.
	hashLanes int
	pool      *lanes.Pool
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
// memory, the fill and the held batch together (the spare is empty).
func (n *FIDR) publishOccupancy() {
	n.queueDepth.Set(float64(n.fill.n + n.back.n))
	n.bufferedBytes.Set(float64(len(n.fill.arena) + len(n.back.arena)))
}

// BufferWrite accepts one chunk into the filling buffer. The data is
// copied into the buffer's arena (the NIC owns its buffer memory). Returns
// ErrBufferFull when the buffer cannot hold the chunk's bytes or one more
// chunk; the caller must drain a batch first. The chunk is posted to the
// buffer's hash job (see wakeBacklog).
func (n *FIDR) BufferWrite(lba uint64, data []byte) error {
	g := n.fill
	off := len(g.arena)
	if off+len(data) > n.bufferCap || g.n == len(g.slots) {
		return ErrBufferFull
	}
	g.arena = append(g.arena, data...)
	end := len(g.arena)
	g.slots[g.n].WriteEntry = WriteEntry{LBA: lba, Data: g.arena[off:end:end], Size: len(data)}
	g.slots[g.n].ready.Store(false) // the round that hashed it last has ended
	g.index[lba] = g.n
	g.n++
	n.pool.Post(g.job, g.n, n.hashLanes, wakeBacklog)
	n.writes.Inc()
	n.bytes.Add(uint64(len(data)))
	n.publishOccupancy()
	return nil
}

// Buffered returns the number of chunks in the filling buffer.
func (n *FIDR) Buffered() int { return n.fill.n }

// Held reports whether a batch is held: tipped, its ScheduleBatch still
// to run.
func (n *FIDR) Held() bool { return n.held }

// Tip starts the filling buffer's tip. With a batch held it also starts
// helpers for the chunks the resident ones have not reached, so they hash
// while the caller commits the held batch; Detach follows once that batch
// is consumed. A caller whose commit fails skips Detach: the fill stays
// attached, and the next tip starts over.
func (n *FIDR) Tip() {
	n.fill.tipAt = int64(time.Since(epoch))
	if n.held {
		n.pool.Post(n.fill.job, n.fill.n, n.hashLanes, 1)
	}
}

// Detach ends a tip: it moves the filling buffer into the held slot, which
// must be empty, and swaps the spare in for the writes that follow. It
// hashes nothing (HeldFP does), commits the counters once, builds the
// data-stripped view for Head and returns how many chunks the batch holds.
// The held chunks answer reads, behind the filling buffer, until
// ScheduleBatch consumes them.
func (n *FIDR) Detach() int {
	if n.held {
		panic("nic: Detach with a batch held")
	}
	g := n.fill
	n.fill, n.back, n.held = n.back, g, true
	n.hashOps.Add(uint64(g.n))
	n.hashBytes.Add(uint64(len(g.arena)))
	g.view = g.view[:0]
	for i := range g.n {
		g.view = append(g.view, WriteEntry{LBA: g.slots[i].LBA, Size: g.slots[i].Size})
	}
	return g.n
}

// Head returns the held batch's data-stripped entries — the (LBA,
// fingerprint) pairs sent to the host, the only write-path data that
// touches host memory in FIDR, and what its ScheduleBatch flags must align
// with — or nil when none is held. Entry i's FP is set once HeldFP(i)
// returned. Valid until that ScheduleBatch.
func (n *FIDR) Head() []WriteEntry {
	if !n.held {
		return nil
	}
	return n.back.view
}

// HeldFP returns the fingerprint of the held batch's entry i, sets it in
// Head's view, and returns how long the call waited for it. An entry no
// helper has claimed is hashed here, after the unclaimed ones before it;
// while a helper hashes it, the caller hashes the batch's next unclaimed
// chunks, yielding only when none is left. A fingerprint is a pure
// function of its chunk: any lane count and timing give the same bytes.
func (n *FIDR) HeldFP(i int) (fingerprint.FP, time.Duration) {
	g := n.back
	s := &g.slots[i]
	var wait time.Duration
	if !s.ready.Load() {
		start := time.Now()
		for !s.ready.Load() {
			if !g.job.RunNext() {
				runtime.Gosched()
			}
		}
		wait = time.Since(start)
	}
	g.view[i].FP = s.FP
	return s.FP, wait
}

// HeldHashed returns how many of the held batch's fingerprints are
// written, whichever goroutine wrote them (0 with none held).
func (n *FIDR) HeldHashed() int {
	hashed := 0
	for i := range n.back.n {
		if n.back.slots[i].ready.Load() {
			hashed++
		}
	}
	return hashed
}

// HeldData returns the bytes of the held batch's entry i, for the engine to
// compress ahead of ScheduleBatch. Valid until that ScheduleBatch.
func (n *FIDR) HeldData(i int) []byte { return n.back.slots[i].Data }

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
	return g.slots[i].Data, true
}

// ScheduleBatch consumes the held batch — the filling buffer when none is
// held — given per-chunk uniqueness flags (computed by the host's table
// lookup) and returns the batch of unique chunks for the Compression
// Engines. Duplicate chunks are dropped from NIC memory — they never cross
// PCIe, which is FIDR's bandwidth win — and no chunk of the batch answers
// reads after it. flags must align with the entries Head returned (or the
// filling buffer's). It joins the held batch's hash round, so every FP
// returned is set, or stops the fill's, waiting for the hashes in flight
// either way, so no chunk is overwritten while one is read. The result is
// NIC scratch, valid until the next ScheduleBatch; its Data view the
// emptied arena, valid until the next BufferWrite.
func (n *FIDR) ScheduleBatch(flags []bool) ([]WriteEntry, error) {
	g := n.fill
	if n.held {
		g = n.back
	}
	if len(flags) != g.n {
		return nil, fmt.Errorf("nic: %d flags for %d buffered chunks", len(flags), g.n)
	}
	if n.held {
		n.hashLaneBusyNS.Add(uint64(g.job.Join()))
		n.busyNS.Add(uint64(max(g.lastFP.Load()-g.tipAt, 0)))
	} else {
		g.job.Stop()
	}
	unique := n.unique[:0]
	for i, isUnique := range flags {
		if isUnique {
			unique = append(unique, g.slots[i].WriteEntry)
		}
	}
	n.uniqueSent.Add(uint64(len(unique)))
	n.dupDrops.Add(uint64(len(flags) - len(unique)))
	n.batches.Inc()
	n.unique = unique
	g.n, g.arena = 0, g.arena[:0]
	g.lastFP.Store(0)
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
