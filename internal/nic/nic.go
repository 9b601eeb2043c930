// Package nic models the server's network interface cards.
//
// Two variants exist (§5.4):
//
//   - Plain: the baseline's NIC. It terminates TCP/storage protocol in
//     hardware but DMA-writes every client byte into host memory, where
//     software takes over.
//   - FIDR: the paper's data-reduction NIC. It buffers client writes in
//     NIC memory, hashes chunks with on-NIC SHA-256 cores as they arrive,
//     answers reads that hit the in-NIC write buffer, and schedules
//     batches of unique chunks for direct P2P transfer to the Compression
//     Engines — host memory sees only hash values and per-chunk flags.
//
// The SHA-core array is lanes 0..k-1. Lanes 1..k-1 are arrival hashers:
// goroutines that BufferWrite wakes while the filling buffer fills and
// that exit once they have caught up with it. Lane 0 is the caller of
// Join, which hashes whatever the arrival hashers had not reached when the
// batch tipped. With one lane nothing starts and Join hashes the batch.
package nic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fidr/internal/bufpool"
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
	// FP is the chunk fingerprint, written by whichever SHA-core lane
	// claimed the chunk; complete for the whole generation once Join
	// returns.
	FP fingerprint.FP
}

// Config configures a FIDR NIC.
type Config struct {
	// BufferBytes bounds the in-NIC chunk buffer (battery-backed NIC
	// DRAM; writes are acked once buffered, §7.6.1).
	BufferBytes int
	// HashLanes is the modeled SHA-256 core count; <= 0 selects the
	// GOMAXPROCS-derived default (lanes.Default), as in core.Config.
	HashLanes int
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
	// busyNS accumulates tip-to-join wall time; its windowed rate is the
	// NIC's duty cycle in the sampler. hashLaneBusyNS sums the hashing
	// time of every lane, arrival hashers included (it can exceed busyNS,
	// which does not see the hashing done before a tip).
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

// wakeBacklog is how many unclaimed chunks of a generation wake an
// arrival hasher: an eighth of the default 64-chunk batch. Waking per
// chunk would start a goroutine on every write.
const wakeBacklog = 8

// generation is one buffer's worth of chunks: the buffer being filled, or
// one the server detached when its batch tipped and has not consumed yet.
type generation struct {
	entries []WriteEntry
	bytes   int
	// view is entries without the chunk bytes — what Head hands the host —
	// rebuilt by Join, valid until the generation is consumed. Every
	// generation has its own, so one batch's view survives the next
	// batch's hashing.
	view []WriteEntry

	// mu orders the owner's appends to entries with the hashers' claims
	// and FP writes; a hasher touches entries only under it. Entries
	// before next are claimed. running counts live arrival hashers, wg
	// joins them, and busy sums the lanes' hashing time since the last
	// join.
	mu      sync.Mutex
	next    int
	running int
	busy    time.Duration
	wg      sync.WaitGroup
	// hash is an arrival hasher's body, built once per generation so that
	// a wake's `go` statement allocates nothing.
	hash func()
}

func newGeneration() *generation {
	g := &generation{}
	g.hash = func() {
		g.mu.Lock()
		g.drain()
		g.running--
		g.mu.Unlock()
		g.wg.Done()
	}
	return g
}

// drain claims entries from next, in order, and hashes each outside the
// lock until none is left unclaimed. Called and returns with mu held.
func (g *generation) drain() {
	start := time.Now()
	for g.next < len(g.entries) {
		i := g.next
		g.next++
		data := g.entries[i].Data
		g.mu.Unlock()
		fp := fingerprint.Of(data)
		g.mu.Lock()
		g.entries[i].FP = fp
	}
	g.busy += time.Since(start)
}

// stop claims whatever is unclaimed without hashing it and waits for the
// hashes in flight: afterwards no hasher reads an entry.
func (g *generation) stop() {
	g.mu.Lock()
	g.next = len(g.entries)
	g.mu.Unlock()
	g.wg.Wait()
}

// FIDR is the data-reduction NIC.
//
// Its chunk memory holds generations: the filling buffer, which takes
// writes and answers reads, and behind it a queue of detached ones waiting
// for the server's table lookup and ScheduleBatch, oldest first. Arrival
// hashers fingerprint the filling buffer while it fills; Tip detaches it,
// and Join finishes its hashes, so the server can run the previous
// generation's lookup-to-seal between the two. BufferBytes bounds each
// generation.
type FIDR struct {
	// bufferCap bounds one generation's chunk bytes (the NIC's
	// battery-backed DRAM; writes are acked once buffered, §7.6.1).
	bufferCap int
	fill      *generation
	waiting   []*generation
	free      []*generation // consumed generations, reused by Tip
	// lbaIndex finds the most recent entry per LBA in the filling buffer
	// for the read fast path (§5.3 read step 2).
	lbaIndex map[uint64]int
	// hashLanes is the modeled SHA-256 core count: up to hashLanes-1
	// arrival hashers per generation, plus Join's caller. hashing is the
	// generation between its tip and its join, hashStart when it tipped.
	hashLanes int
	hashing   *generation
	hashStart time.Time
	// unique backs ScheduleBatch's result, valid until its next call.
	unique []WriteEntry

	counters
}

// New creates a FIDR NIC from cfg.
func New(cfg Config) (*FIDR, error) {
	if cfg.BufferBytes < 4096 {
		return nil, fmt.Errorf("nic: buffer capacity %d too small", cfg.BufferBytes)
	}
	n := &FIDR{bufferCap: cfg.BufferBytes, fill: newGeneration(), lbaIndex: make(map[uint64]int)}
	n.SetHashLanes(cfg.HashLanes)
	return n, nil
}

// SetHashLanes sets the modeled SHA-256 core count. count <= 0 selects
// the GOMAXPROCS-derived default. Results are byte-identical at any lane
// count; only wall time changes.
func (n *FIDR) SetHashLanes(count int) {
	n.hashLanes = lanes.Normalize(count)
	n.hashLanesG.Set(float64(n.hashLanes))
}

// HashLanes returns the configured SHA-core lane count.
func (n *FIDR) HashLanes() int { return n.hashLanes }

// publishOccupancy sets the occupancy gauges: chunks and bytes held in NIC
// memory, filling and waiting generations together.
func (n *FIDR) publishOccupancy() {
	chunks, bytes := len(n.fill.entries), n.fill.bytes
	for _, g := range n.waiting {
		chunks += len(g.entries)
		bytes += g.bytes
	}
	n.queueDepth.Set(float64(chunks))
	n.bufferedBytes.Set(float64(bytes))
}

// BufferWrite accepts one chunk into the filling buffer. The data is
// copied (the NIC owns its buffer memory). Returns ErrBufferFull when the
// buffer cannot hold the chunk; the caller must drain a batch first. Once
// wakeBacklog chunks of the buffer are unclaimed it wakes an arrival
// hasher, if fewer than HashLanes-1 are running.
func (n *FIDR) BufferWrite(lba uint64, data []byte) error {
	g := n.fill
	if g.bytes+len(data) > n.bufferCap {
		return ErrBufferFull
	}
	cp := bufpool.Get(len(data))
	copy(cp, data)
	g.mu.Lock()
	g.entries = append(g.entries, WriteEntry{LBA: lba, Data: cp, Size: len(data)})
	n.wake(g, wakeBacklog)
	g.mu.Unlock()
	n.lbaIndex[lba] = len(g.entries) - 1
	g.bytes += len(data)
	n.writes.Inc()
	n.bytes.Add(uint64(len(data)))
	n.publishOccupancy()
	return nil
}

// Buffered returns the number of chunks in the filling buffer.
func (n *FIDR) Buffered() int { return len(n.fill.entries) }

// Waiting returns the number of detached generations not yet consumed.
func (n *FIDR) Waiting() int { return len(n.waiting) }

// wake starts arrival hashers on g while at least backlog of its chunks
// are unclaimed beyond one per running hasher, and fewer than HashLanes-1
// run. Called with g.mu held.
func (n *FIDR) wake(g *generation, backlog int) {
	for g.running < n.hashLanes-1 && len(g.entries)-g.next-g.running >= backlog {
		g.running++
		g.wg.Add(1)
		go g.hash()
	}
}

// Tip detaches the filling buffer as a generation: it joins the tail of
// the waiting queue and a fresh buffer takes the writes that follow. The
// arrival hashers already on it keep hashing; with background set Tip
// also wakes hashers for the chunks they have not reached, up to
// HashLanes-1 in all, so the caller can do what it likes to everything
// but this generation's entries. Join must follow before the caller
// returns to its own caller. Reads no longer find the detached chunks:
// the server settles a waiting generation before a read looks past the
// filling buffer.
func (n *FIDR) Tip(background bool) {
	g := n.fill
	n.waiting = append(n.waiting, g)
	if last := len(n.free) - 1; last >= 0 {
		n.fill, n.free = n.free[last], n.free[:last]
	} else {
		n.fill = newGeneration()
	}
	clear(n.lbaIndex)
	n.hashStart = time.Now()
	n.hashing = g
	if background {
		g.mu.Lock()
		n.wake(g, 1)
		g.mu.Unlock()
	}
}

// Join completes the tipped generation's hashes. The caller is lane 0: it
// claims and hashes whatever is still unclaimed, then waits for the hashes
// in flight. Join then commits the counters once, builds the generation's
// data-stripped view for Head and returns how many chunks the generation
// holds. Every fingerprint is a pure function of its chunk, so the result
// is byte-identical at any lane count and any arrival timing. busy_ns
// covers tip to join.
func (n *FIDR) Join() int {
	g := n.hashing
	n.hashing = nil
	g.mu.Lock()
	g.drain()
	g.mu.Unlock()
	g.wg.Wait()
	if len(g.entries) > 0 {
		var hashBytes uint64
		for i := range g.entries {
			hashBytes += uint64(len(g.entries[i].Data))
		}
		n.hashOps.Add(uint64(len(g.entries)))
		n.hashBytes.Add(hashBytes)
		n.busyNS.Add(uint64(time.Since(n.hashStart)))
		n.hashLaneBusyNS.Add(uint64(g.busy))
	}
	g.busy = 0
	g.view = append(g.view[:0], g.entries...)
	for i := range g.view {
		g.view[i].Data = nil
	}
	return len(g.view)
}

// Head returns the hashed, data-stripped entries of the oldest waiting
// generation — the (LBA, fingerprint) pairs sent to the host, the only
// write-path data that touches host memory in FIDR, and what its
// ScheduleBatch flags must align with — or nil when none waits. Valid
// until that ScheduleBatch.
func (n *FIDR) Head() []WriteEntry {
	if len(n.waiting) == 0 {
		return nil
	}
	return n.waiting[0].view
}

// LookupRead serves a read from the filling buffer if the LBA is buffered
// there, returning the freshest data for that LBA.
func (n *FIDR) LookupRead(lba uint64) ([]byte, bool) {
	n.readLookups.Inc()
	i, ok := n.lbaIndex[lba]
	if !ok {
		return nil, false
	}
	n.readHits.Inc()
	return n.fill.entries[i].Data, true
}

// ScheduleBatch consumes the oldest waiting generation — the filling
// buffer when none waits — given per-chunk uniqueness flags (computed by
// the host's table lookup) and returns the batch of unique chunks for the
// Compression Engines. Duplicate chunks are dropped from NIC memory —
// they never cross PCIe, which is FIDR's bandwidth win. flags must align
// with the entries Head returned (or the filling buffer's, when none
// waits); on the filling buffer it first stops the arrival hashers and
// waits for them, so no chunk is recycled while one is read. The returned
// slice is NIC scratch, valid until the next ScheduleBatch; the chunk
// buffers it points at are the caller's.
func (n *FIDR) ScheduleBatch(flags []bool) ([]WriteEntry, error) {
	g := n.fill
	if len(n.waiting) > 0 {
		g = n.waiting[0]
	}
	if len(flags) != len(g.entries) {
		return nil, fmt.Errorf("nic: %d flags for %d buffered chunks", len(flags), len(g.entries))
	}
	g.stop()
	unique := n.unique[:0]
	for i, isUnique := range flags {
		if isUnique {
			unique = append(unique, g.entries[i])
		} else {
			// Duplicates never leave the NIC; their buffer memory is
			// recycled immediately. Unique chunks transfer ownership to
			// the caller, who releases them after container packing.
			bufpool.Put(g.entries[i].Data)
		}
	}
	n.uniqueSent.Add(uint64(len(unique)))
	n.dupDrops.Add(uint64(len(flags) - len(unique)))
	n.batches.Inc()
	n.unique = unique
	g.entries, g.bytes, g.next, g.busy = g.entries[:0], 0, 0, 0
	if g == n.fill {
		clear(n.lbaIndex)
	} else {
		n.waiting = append(n.waiting[:0], n.waiting[1:]...)
		n.free = append(n.free, g)
	}
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
