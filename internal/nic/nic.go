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
	// FP is the chunk fingerprint, computed by the NIC hash cores once the
	// chunk's generation tips.
	FP fingerprint.FP
}

// Config configures a FIDR NIC.
type Config struct {
	// BufferBytes bounds the in-NIC chunk buffer (battery-backed NIC
	// DRAM; writes are acked once buffered, §7.6.1).
	BufferBytes int
	// HashLanes is the modeled SHA-256 core count; <= 0 selects the
	// GOMAXPROCS-derived default.
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

// generation is one buffer's worth of chunks: the buffer being filled, or
// one the server detached when its batch tipped and has not consumed yet.
type generation struct {
	entries []WriteEntry
	bytes   int
	// view is entries without the chunk bytes — what Head hands the host —
	// rebuilt by the generation's hash round, valid until the generation is
	// consumed. Every generation has its own, so one batch's view survives
	// the next batch's hashing.
	view []WriteEntry
}

// FIDR is the data-reduction NIC.
//
// Its chunk memory holds generations: the filling buffer, which takes
// writes and answers reads, and behind it a queue of detached ones waiting
// for the server's table lookup and ScheduleBatch, oldest first. Tip
// detaches the filling buffer and starts the SHA cores on it, so the
// server can run the previous generation's lookup-to-seal while this one
// hashes. BufferBytes bounds each generation.
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
	// hashLanes is the modeled SHA-256 core count: a hash round fans the
	// generation across this many lanes (1 = serial). cores is the lane
	// group, bound once to hashOne; hashing is the generation the round
	// between a start and its join works on, hashStart when it began.
	hashLanes int
	cores     *lanes.Group
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
	n := &FIDR{bufferCap: cfg.BufferBytes, fill: &generation{}, lbaIndex: make(map[uint64]int)}
	n.cores = lanes.NewGroup(n.hashOne)
	hl := 1
	if cfg.HashLanes != 0 {
		hl = cfg.HashLanes
	}
	n.SetHashLanes(hl)
	return n, nil
}

// SetHashLanes sets the modeled SHA-256 core count a hash round fans out
// across. n <= 0 selects the GOMAXPROCS-derived default. Results are
// byte-identical at any lane count; only wall time changes.
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
// buffer cannot hold the chunk; the caller must drain a batch first.
func (n *FIDR) BufferWrite(lba uint64, data []byte) error {
	g := n.fill
	if g.bytes+len(data) > n.bufferCap {
		return ErrBufferFull
	}
	cp := bufpool.Get(len(data))
	copy(cp, data)
	g.entries = append(g.entries, WriteEntry{LBA: lba, Data: cp, Size: len(data)})
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

// hashOne is the SHA cores' item function: item i of a round is entry i
// of the generation being hashed. It touches that entry's FP and nothing
// else.
func (n *FIDR) hashOne(_, i int) {
	e := &n.hashing.entries[i]
	e.FP = fingerprint.Of(e.Data)
}

// Tip detaches the filling buffer as a generation — it joins the tail of
// the waiting queue and a fresh buffer takes the writes that follow — and
// starts the SHA cores on it, fanned across the configured lanes with a
// deterministic chunk->lane assignment. With background set the lanes run
// on their own goroutines while the caller does what it likes to
// everything but this generation's entries; otherwise the round is
// complete on return (the caller ran lane 0). Either way Join must follow
// before the caller returns to its own caller, so nothing outlives the
// call that tipped the batch. Reads no longer find the detached chunks:
// the server settles a waiting generation before a read looks past the
// filling buffer.
func (n *FIDR) Tip(background bool) {
	g := n.fill
	n.waiting = append(n.waiting, g)
	if last := len(n.free) - 1; last >= 0 {
		n.fill, n.free = n.free[last], n.free[:last]
	} else {
		n.fill = &generation{}
	}
	clear(n.lbaIndex)
	n.hashStart = time.Now()
	n.hashing = g
	k := lanes.Clamp(n.hashLanes, len(g.entries))
	if background {
		n.cores.Start(len(g.entries), k)
	} else {
		n.cores.Run(len(g.entries), k)
	}
}

// Join completes the hash round Tip began: it waits for the lanes, commits
// the counters once, in buffer order — so the result is byte-identical to
// the serial path at any lane count — builds the generation's
// data-stripped view for Head and returns how many chunks the tipped
// generation holds. busy_ns covers start to join.
func (n *FIDR) Join() int {
	g := n.hashing
	busy := n.cores.Join()
	n.hashing = nil
	if len(g.entries) > 0 {
		var hashBytes uint64
		for i := range g.entries {
			hashBytes += uint64(len(g.entries[i].Data))
		}
		n.hashOps.Add(uint64(len(g.entries)))
		n.hashBytes.Add(hashBytes)
		n.busyNS.Add(uint64(time.Since(n.hashStart)))
		n.hashLaneBusyNS.Add(uint64(lanes.Total(busy)))
	}
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
// waits). The returned slice is NIC
// scratch, valid until the next ScheduleBatch; the chunk buffers it
// points at are the caller's.
func (n *FIDR) ScheduleBatch(flags []bool) ([]WriteEntry, error) {
	g := n.fill
	if len(n.waiting) > 0 {
		g = n.waiting[0]
	}
	if len(flags) != len(g.entries) {
		return nil, fmt.Errorf("nic: %d flags for %d buffered chunks", len(flags), len(g.entries))
	}
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
	g.entries, g.bytes = g.entries[:0], 0
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
