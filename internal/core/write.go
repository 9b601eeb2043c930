package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"fidr/internal/engine"
	"fidr/internal/fingerprint"
	"fidr/internal/hostmodel"
	"fidr/internal/lanes"
	"fidr/internal/nic"
	"fidr/internal/pcie"
)

// Write ingests one client write: a stream segment the server's chunker
// cuts into chunks. A chunk's address is lba plus its byte position in
// data divided by the chunking's Unit: under fixed chunking the unit is
// the chunk and data must be exactly one, so lba is its chunk index; under
// CDC the unit is a byte, lba is the segment's stream byte offset and the
// chunks are content-defined extents. A write whose last chunk's address
// would pass 2^64-1 is refused whole. The chunks are buffered in the write
// buffer (host memory for the baseline, NIC memory for FIDR) and processed
// when a full accelerator batch accumulates.
func (s *Server) Write(lba uint64, data []byte) error {
	return s.WriteTraced(lba, data, nil)
}

// WriteTraced is Write with a front-end trace context: spans the caller
// already measured (async queue wait, cluster routing) join this
// request's trace and stage histograms. tc may be nil.
func (s *Server) WriteTraced(lba uint64, data []byte, tc *TraceContext) error {
	if err := s.failIfCrashed(); err != nil {
		return err
	}
	unit := s.cfg.Chunking.Unit()
	switch {
	case len(data) == 0:
		return fmt.Errorf("core: empty stream write")
	case unit == s.cfg.ChunkSize && len(data) != unit:
		return fmt.Errorf("core: write of %d bytes, chunk size is %d", len(data), s.cfg.ChunkSize)
	case lba > math.MaxUint64-uint64((len(data)-1)/unit):
		// A wrapped tail would overwrite the bottom of the volume.
		return fmt.Errorf("core: write of %d bytes at LBA %d wraps the address space", len(data), lba)
	}
	tr := s.obs.begin("write", lba)
	tr.adopt(tc)
	defer tr.done()
	s.activeReq = tr
	defer func() { s.activeReq = nil }()
	// A commit that failed left its batch buffered (FIDR's in the full
	// fill, the baseline's held): it commits before this write's chunks
	// join the buffer, and a write it refuses buffers and counts nothing.
	// Both architectures tip as the chunk that fills a batch buffers, so no
	// batch grows past BatchChunks; a tip that fails mid-segment returns
	// with that segment's earlier chunks buffered.
	if s.wbuf.Buffered() >= s.cfg.BatchChunks || s.cfg.Arch == Baseline && s.wbuf.Held() {
		if err := s.tipBatch(false); err != nil {
			return err
		}
	}
	s.ctr.writes.Inc()
	s.ctr.clientBytes.Add(uint64(len(data)))
	s.ctr.logicalBytes.Add(uint64(len(data)))
	s.ledger.Client(uint64(len(data)))
	s.ledger.Count(hostmodel.EvProtocolWrite, 1)

	// The one cut loop: the baseline's chunker is host software (its NIC
	// DMA-writes raw bytes), FIDR's runs in the NIC; either way each chunk
	// goes to the write buffer under its own address.
	s.cbounds = s.chunker.AppendBoundaries(s.cbounds[:0], data)
	prev := 0
	for _, b := range s.cbounds {
		if err := s.bufferChunk(lba+uint64(prev/unit), data[prev:b], tr); err != nil {
			return err
		}
		prev = b
	}
	return nil
}

// Flush processes any partial batch and pushes sealed containers to the
// data SSDs, returning with no container write in flight. Call at end of
// workload (and before relying on SSD-resident state).
func (s *Server) Flush() error {
	if err := s.failIfCrashed(); err != nil {
		return err
	}
	if err := s.tipBatch(true); err != nil {
		return err
	}
	s.comp.Flush()
	tr := s.obs.begin("flush", 0)
	defer tr.done()
	return s.writeSealed(tr, true)
}

// --- The write buffer: one for both architectures ---

// bufferChunk runs the first step of both write flows for one chunk: the
// baseline's NIC DMA-writes it into the host request buffer (§2.3), FIDR's
// buffers it in battery-backed NIC memory (§5.3); either way the client is
// acked at once, and the buffer's hash job fingerprints the chunk — on the
// FPGA hash array or the NIC's SHA cores — as the batch fills. When the
// buffer is full the batch tips and the chunk goes into the fresh one. The
// chunk supersedes whatever the §8 read cache holds at its address — a
// segment's interior extents included, not only its first. Once buffered,
// the chunk runs the held batch's next entry through the commit core — its
// table lookup (steps 4-5), for a unique its compress, pack and admit
// (step 8), and its mapping — so a full fill has run every entry by its
// tip, which only publishes; a step that fails fails no write, it stops the
// batch at that step and the next tip returns it. Only FIDR holds a batch
// during a fill. The chunk that fills the batch tips it.
func (s *Server) bufferChunk(lba uint64, data []byte, tr *ReqTrace) error {
	s.rcache.invalidate(lba)
	from := tr.start()
	if s.cfg.Arch == Baseline {
		s.pnic.ReceiveWrite(data)
		s.transfer(devNIC, pcie.HostMemory, uint64(len(data)))
		s.ledger.MemPayload(hostmodel.PathNICHost, uint64(len(data)))
		s.ledger.Count(hostmodel.EvDMAChunk, 1)
	}
	err := s.wbuf.BufferWrite(lba, data)
	tr.span(StageNICBuffer, from)
	if err == nic.ErrBufferFull {
		// Validate sizes the NIC buffer for several Max-size chunks, and
		// New the host request buffer for a batch of them, so the retry
		// into an empty buffer fits.
		if err := s.tipBatch(false); err != nil {
			return err
		}
		from = tr.start()
		err = s.wbuf.BufferWrite(lba, data)
		tr.span(StageNICBuffer, from)
	}
	if err != nil {
		return err
	}
	if s.held.fillErr == nil {
		s.held.fillErr = s.commitCore(s.wbuf.Head(), 1)
	}
	if s.wbuf.Buffered() >= s.cfg.BatchChunks {
		return s.tipBatch(false)
	}
	return nil
}

// commitStep is the step of the commit core (commitEntry) an entry runs.
// The zero value is the lookup, where a FIDR entry starts; a baseline entry
// starts two steps ahead of it.
type commitStep uint8

const (
	stepLookup commitStep = iota
	stepPack              // a unique's compress and pack
	stepAppend            // a unique takes its PBN
	stepInsert            // a unique's Hash-PBN insert and the rest of its admit
	stepMap
	stepPredict  // the baseline's steps 1-2, then stepCompress
	stepCompress // the baseline's steps 3-4, then stepLookup
)

// heldBatch is the batch under commit — the write buffer's held batch.
// Its progress is one entry, next, and the step that entry runs next: a
// step that fails leaves both, so the retry resumes there. flags[i] notes
// that entry i's lookup found no entry (a unique); pbn is entry next's PBN
// once its lookup (a duplicate) or its Append (a unique) has run, and meta
// its packed metadata once its pack has. Baseline only: cdata is entry
// next's bytes once step 1 predicted it unique, its compressed form once
// step 3 has run, and nil for a predicted duplicate. tip is the request
// that tipped the batch, under whose trace its commit links. hashDur sums
// the time the batch's lookups waited for their fingerprints
// (nic.FIDR.HeldFP). The batch trace reports it once, from lookupStart, as
// the hash stage, lookupDur from lookupStart on (prediction, lookup, admit
// and map, without those waits) as dedup_lookup and packDur from
// packStart on (the compresses) as compress; for FIDR all three are the
// fill's time. FIDR only: fillErr a commit step that failed during the
// fill, which the commit returns once before retrying that entry.
type heldBatch struct {
	tip         *ReqTrace
	next        int
	step        commitStep
	pbn         uint64
	meta        engine.ChunkMeta
	flags       []bool
	hashDur     time.Duration
	lookupStart time.Time
	lookupDur   time.Duration
	packStart   time.Time
	packDur     time.Duration
	cdata       []byte
	fillErr     error
}

// holdBatch puts a new batch of n chunks under commit, at its first
// entry's first step, in the flags array of the batch before.
func (s *Server) holdBatch(n int) {
	h := &s.held
	*h = heldBatch{tip: s.activeReq, step: s.firstStep(), flags: append(h.flags[:0], make([]bool, n)...)}
}

// firstStep is where each entry starts: the baseline's at its prediction,
// FIDR's, which the NIC hashed and nothing predicts, at its lookup.
func (s *Server) firstStep() commitStep {
	if s.cfg.Arch == Baseline {
		return stepPredict
	}
	return stepLookup
}

// tipBatch runs when the filling buffer holds a batch (and, with now set,
// from Flush on whatever it holds). The batch's hashing — §5.3's step 2 on
// the NIC's SHA cores, §2.3's step 3 on the FPGA hash array — is a pure
// function of bytes already in the buffer: the pool's helpers have
// fingerprinted most of the batch while it filled. The buffer starts the
// tip; with a batch held (FIDR) this goroutine publishes it — the fill's
// writes have already run its entries through the commit core, one per
// chunk — and only then does the buffer detach the fill into the emptied
// slot. The tip hashes nothing itself: the helpers keep hashing the batch
// after the call returns, and each of its lookups waits only for its own
// fingerprint (commitEntry). A commit that fails returns before the detach:
// the failed batch stays held, and the fill stays attached and readable.
//
// The new batch starts at its first entry. FIDR runs its entries
// as the next fill's writes buffer, and publishes it at the next tip, reads
// or not (the NIC answers them from both buffers), unless this is Flush.
// The baseline commits it here: it never holds a batch across a fill.
func (s *Server) tipBatch(now bool) error {
	if s.wbuf.Buffered() == 0 {
		return s.commitHeld()
	}
	s.wbuf.Tip()
	if s.wbuf.Held() {
		s.ctr.overlapped.Inc()
		if err := s.commitBatch(false); err != nil {
			return err
		}
	}
	n := s.wbuf.Detach()
	s.holdBatch(n)
	if s.cfg.Arch != Baseline {
		// Only the hash values cross PCIe into host memory.
		hashBytes := uint64(n) * fingerprint.Size
		s.transfer(devNIC, pcie.HostMemory, hashBytes)
		s.ledger.Mem(hostmodel.PathNICHost, hashBytes)
		s.ledger.Count(hostmodel.EvDMABatch, 1)
		s.ledger.Count(hostmodel.EvDeviceMgrChunk, uint64(n))
	}
	if err := s.crashPoint(CrashPostHash); err != nil {
		return err
	}
	switch {
	case now:
		return s.commitHeld()
	case s.cfg.Arch == Baseline:
		return s.commitBatch(false)
	}
	return nil
}

// commitHeld commits the batch under commit, if any — the FIDR NIC's held
// batch, or a baseline batch whose commit failed — and returns with no
// container write in flight. Flush and the maintenance verbs, which look
// at the server past the write buffer, call it first, so they observe the
// state they would have observed had every batch been committed by the
// write that tipped it; a read needs none of it, since the buffer answers
// the held chunks itself. This is also what keeps the held batch's early
// lookups and packs exact: nothing else touches the table cache or the
// open container between its hold and its publication. The read-outs that
// return no error (Garbage, CapacityReport, ContainerHeatmap) drop its
// error: the failed batch stays held, the read-out describes the state it
// left, and the next tip, Flush or maintenance verb returns the error.
func (s *Server) commitHeld() error {
	if err := s.failIfCrashed(); err != nil {
		return err
	}
	if s.wbuf.Held() {
		return s.commitBatch(true)
	}
	return s.reapSealed()
}

// commitBatch runs the rest of the held batch's write flow: FIDR's step 3,
// then the commit core runs whatever entries the fill left (FIDR: normally
// none; the baseline: all, each from its steps 1-4).
// Then the published batch leaves the buffer — for FIDR step 7's
// ScheduleBatch, which sends its uniques to the engine — and writeSealed
// gets the sealed containers. Until then a failure leaves it held and
// readable, and the next tip (FIDR), write (baseline), Flush or
// maintenance verb resumes it at the step that failed.
func (s *Server) commitBatch(wait bool) error {
	entries := s.wbuf.Head()
	h := &s.held
	bt := s.obs.beginLinked("batch", entries[0].LBA, h.tip)
	defer bt.done()
	if s.cfg.Arch == FIDRFull {
		// Step 3: the device manager sends bucket indexes to the Cache
		// HW-Engine (with software caching this stays on the host).
		s.transfer(pcie.HostMemory, devCacheHW, uint64(len(entries))*8)
		s.transfer(devCacheHW, pcie.HostMemory, uint64(len(entries))*8)
	}
	if err := h.fillErr; err != nil {
		h.fillErr = nil
		return err
	}
	if err := s.commitCore(entries, len(entries)); err != nil {
		return err
	}
	bt.at(StageHash, h.lookupStart, h.hashDur)
	bt.at(StageDedupLookup, h.lookupStart, h.lookupDur)
	bt.at(StageCompress, h.packStart, h.packDur)
	if s.cfg.Arch != Baseline {
		// Step 6: uniqueness flags return to the NIC.
		s.transfer(pcie.HostMemory, devNIC, uint64(len(entries)))
		s.ledger.Mem(hostmodel.PathNICHost, uint64(len(entries)))
	}

	// Published: every chunk's bytes are packed (containers copy) or
	// dropped, and the batch leaves the buffer whole. FIDR's step 7: the
	// NIC's compression scheduler builds a batch of unique chunks and sends
	// it peer-to-peer to the Compression Engine.
	unique, err := s.wbuf.ScheduleBatch(h.flags)
	if err != nil {
		return err
	}
	s.ctr.batches.Inc()
	if s.cfg.Arch != Baseline {
		var uniqueBytes uint64
		for i := range unique {
			uniqueBytes += uint64(unique[i].Size)
		}
		s.transfer(devNIC, devComp, uniqueBytes)

		// Step 8: the engine packed the unique chunks in batch order while
		// the next batch filled; only their metadata reaches the host.
		metaBytes := uint64(len(unique)) * 16
		s.transfer(devComp, pcie.HostMemory, metaBytes)
		s.ledger.Mem(hostmodel.PathHostFPGA, metaBytes)
	}

	// FIDR's steps 9-10: sealed containers go engine -> data SSD
	// peer-to-peer (the baseline's cross host memory).
	return s.writeSealed(bt, wait)
}

// --- The commit core: one for both architectures ---

// commitCore runs up to n of the remaining entries of the batch under
// commit, entries, through the commit core, one entry at a time
// (commitEntry). The architectures differ only in where it runs and in
// pack's source (packChunk). A step that fails returns with the batch still
// buffered and readable; the next call resumes at the entry and step that
// failed.
func (s *Server) commitCore(entries []nic.WriteEntry, n int) error {
	h := &s.held
	if h.next >= len(entries) {
		return nil
	}
	from := s.obs.now()
	h.lookupStart = cmp.Or(h.lookupStart, from)
	hashed, packed := h.hashDur, h.packDur
	var err error
	for end := min(h.next+n, len(entries)); err == nil && h.next < end; {
		err = s.commitEntry(&entries[h.next])
	}
	h.lookupDur += max(s.obs.since(from)-(h.hashDur-hashed)-(h.packDur-packed), 0)
	return err
}

// commitEntry runs entry next, e, from the step it stopped at. A baseline
// entry starts with §2.3 steps 1-2, its prediction and its transfer to the
// FPGA array, and steps 3-4, a predicted unique's compress and the return
// of its fingerprint and compressed bytes to host memory; a compress that
// fails leaves the entry there, so the retry compresses only this chunk
// and predicts nothing again. Then, for both architectures, the table
// lookup (§5.3 steps 4-5, §2.3 step 5), which first waits for the entry's
// fingerprint, which the write buffer's helpers may still be hashing (the
// wait counts as hashDur); for a unique, its pack (step 8), at whose end
// the batch's first unique fires CrashPrePack, then its admit: it takes
// the next PBN in the LBA-PBA table, which maps the chunk's LBA to it, and
// is indexed in the Hash-PBN cache; then the mapping of its LBA. An entry's
// insert follows its own lookup, so its bucket is the one that lookup
// loaded, and a later entry of the same content finds it in the table. The
// baseline's predictor learns each lookup's outcome.
func (s *Server) commitEntry(e *nic.WriteEntry) error {
	h, i := &s.held, s.held.next
	if h.step == stepPredict {
		// The unique-chunk predictor reads the buffered chunk, the batch
		// scheduler marks it for compression or not, and it crosses to the
		// FPGA array.
		if data := s.wbuf.HeldData(i); s.pred.Predict(data) {
			h.cdata = data
		}
		s.ledger.Count(hostmodel.EvBatchSchedChunk, 1)
		s.transfer(pcie.HostMemory, devFPGA, uint64(e.Size))
		s.ledger.MemPayload(hostmodel.PathHostFPGA, uint64(e.Size))
		s.ledger.Count(hostmodel.EvDMAChunk, 1)
		h.step = stepCompress
	}
	if h.step == stepCompress {
		// The array's compression pipelines compress a predicted unique;
		// its hash and compressed bytes return to host memory.
		back := uint64(fingerprint.Size)
		if h.cdata != nil {
			from := s.obs.now()
			h.packStart = cmp.Or(h.packStart, from)
			c, err := s.comp.Compress(h.cdata)
			h.packDur += s.obs.since(from)
			if err != nil {
				return err
			}
			h.cdata = c.Data
			back += uint64(len(c.Data))
		}
		s.transfer(devFPGA, pcie.HostMemory, back)
		s.ledger.MemPayload(hostmodel.PathHostFPGA, back)
		h.step = stepLookup
	}
	if h.step == stepLookup {
		fp, wait := s.wbuf.HeldFP(i)
		h.hashDur += wait
		pbn, found, err := s.cache.Lookup(fp)
		if err != nil {
			return err
		}
		h.flags[i], h.pbn, h.step = !found, pbn, stepMap
		if !found {
			h.step = stepPack
		}
		if s.pred != nil {
			s.pred.Confirm(h.cdata != nil, !found)
		}
	}
	if h.step == stepPack {
		from := s.obs.now()
		h.packStart = cmp.Or(h.packStart, from)
		meta, err := s.packChunk(e, i)
		h.packDur += s.obs.since(from)
		if err != nil {
			return err
		}
		h.meta, h.step = meta, stepAppend
		if !slices.Contains(h.flags[:i], true) {
			if err := s.crashPoint(CrashPrePack); err != nil {
				return err
			}
		}
	}
	if h.step == stepAppend {
		pbn, err := s.lba.Append(h.meta.LBA, h.meta.PBA)
		if err != nil {
			return err
		}
		h.pbn, h.step = pbn, stepInsert
	}
	if h.step == stepInsert {
		if err := s.cache.Insert(h.meta.FP, h.pbn); err != nil {
			return err
		}
		for uint64(len(s.pbnFP)) <= h.pbn {
			s.pbnFP = append(s.pbnFP, fingerprint.FP{})
		}
		s.pbnFP[h.pbn] = h.meta.FP
		s.walAppend(h.meta, h.pbn)
		s.fpLive++
		s.tl.uniques++
		s.tl.stored += uint64(h.meta.CSize)
		s.tl.compSaved += uint64(h.meta.RawSize - h.meta.CSize)
		h.step = stepMap
	}
	// Mapping strictly in request order lets a later write to an LBA
	// (unique or duplicate) win over an earlier one in the same batch.
	if err := s.lba.MapLBA(e.LBA, h.pbn); err != nil {
		return err
	}
	s.ledger.Count(hostmodel.EvLBATableOp, 1)
	if !h.flags[i] {
		s.tl.dup(uint64(e.Size))
	}
	// Log every mapping — including ones Append already created — so
	// replay reproduces same-LBA ordering exactly (a duplicate followed by
	// a unique write of the same LBA must replay in that order).
	s.walMapLBA(e.LBA, h.pbn)
	h.next, h.step, h.cdata = i+1, s.firstStep(), nil
	return nil
}

// packChunk compresses and packs unique i, e. FIDR's engine
// compresses it from NIC memory. The baseline's host packs what the FPGA
// array compressed; a unique chunk predicted duplicate skipped compression
// and takes another round trip through the array (misprediction repair).
func (s *Server) packChunk(e *nic.WriteEntry, i int) (engine.ChunkMeta, error) {
	if s.cfg.Arch != Baseline {
		return s.comp.CompressPack(e.LBA, e.FP, s.wbuf.HeldData(i))
	}
	if c := s.held.cdata; c != nil {
		return s.comp.Pack(e.LBA, e.FP, c, e.Size)
	}
	s.ctr.mispredictions.Inc()
	s.transfer(pcie.HostMemory, devFPGA, uint64(e.Size))
	s.ledger.MemPayload(hostmodel.PathHostFPGA, uint64(e.Size))
	meta, err := s.comp.CompressPack(e.LBA, e.FP, s.wbuf.HeldData(i))
	if err != nil {
		return meta, err
	}
	s.transfer(devFPGA, pcie.HostMemory, uint64(meta.CSize))
	s.ledger.MemPayload(hostmodel.PathHostFPGA, uint64(meta.CSize))
	s.ledger.Count(hostmodel.EvDMAChunk, 1)
	return meta, nil
}

// tally accumulates a batch's dup/unique outcomes so the commit loops pay
// no atomic per chunk; writeSealed, where every batch ends, adds it to the
// server counters (a batch that failed first is counted with the next).
type tally struct {
	dups, dedupSaved           uint64
	uniques, stored, compSaved uint64
}

func (t *tally) dup(savedBytes uint64) {
	t.dups++
	t.dedupSaved += savedBytes
}

func (s *Server) commitTally() {
	s.ctr.dupChunks.Add(s.tl.dups)
	s.ctr.dedupSaved.Add(s.tl.dedupSaved)
	s.ctr.uniqueChunks.Add(s.tl.uniques)
	s.ctr.storedBytes.Add(s.tl.stored)
	s.ctr.compSaved.Add(s.tl.compSaved)
	s.tl = tally{}
}

// writeSealed ends every batch, Flush and Compact: it reaps the container
// writes posted before, posts every container sealed since as one pool
// job — run by a helper, or by whoever reaps it — and commits the WAL
// records whose containers are on the data SSD. With wait the caller
// writes and reaps them itself, leaving no write in flight.
func (s *Server) writeSealed(tr *ReqTrace, wait bool) error {
	s.commitTally()
	defer s.syncCapacityGauges()
	w := &s.sw
	if len(w.posted) > 0 || len(s.comp.Sealed()) > 0 {
		from := tr.start()
		err := s.reapSealed()
		if err == nil && len(s.comp.Sealed()) > 0 {
			w.posted = append(w.posted, s.comp.Sealed()...)
			if wait {
				s.writePosted(0)
				err = s.reapSealed()
			} else {
				s.pool.Post(w.job, 1, s.comp.CompressLanes(), 1)
			}
		}
		tr.span(StageSSDIO, from)
		if err != nil {
			return err
		}
	}
	// WAL fsync batching: one commit per batch, after the containers the
	// staged records reference are on the data SSD.
	if s.wal == nil {
		return nil
	}
	from := tr.start()
	err := s.walCommit()
	tr.span(StageWALFsync, from)
	return err
}

// sealedWrites is the round writeSealed last posted: the containers, oldest
// first, that job's one item writes in order (writePosted); how many it
// wrote; and the write error that stopped it, or one a read's reap left.
type sealedWrites struct {
	job     *lanes.Job
	posted  []engine.SealedContainer
	written int
	err     error
}

// writePosted is the container-write job's item function, on whichever
// goroutine claimed it; it touches only the data SSD and sw.
func (s *Server) writePosted(int) {
	w := &s.sw
	for _, sc := range w.posted[w.written:] {
		if err := s.dataSSD.Write(sc.Index*uint64(len(sc.Data)), sc.Data); err != nil {
			w.err = err
			return
		}
		w.written++
	}
}

// reapSealed joins the posted round (running it if no helper claimed it)
// and retires the written containers in order: ledgers, PopSealed, then
// the crash point. It does no per-byte work: PopSealed hands each buffer
// back unwritten. The baseline's container data crosses host memory;
// FIDR's goes engine -> SSD peer-to-peer. A failed write's container stays
// queued, readable, first at the next writeSealed; its error returns once.
func (s *Server) reapSealed() error {
	w := &s.sw
	if len(w.posted) > 0 {
		w.job.Join()
		for _, sc := range w.posted[:w.written] {
			n := uint64(len(sc.Data))
			if s.cfg.Arch == Baseline {
				s.transfer(pcie.HostMemory, devDataSSD, n)
				s.ledger.MemPayload(hostmodel.PathHostSSD, n)
			} else {
				s.transfer(devComp, devDataSSD, n)
			}
			// Data-SSD queues live in host memory in both architectures;
			// the stack cost is per container, not per chunk.
			s.ledger.Count(hostmodel.EvDataSSDIO, 1)
			s.comp.PopSealed()
			if err := s.crashPoint(CrashMidContainerFlush); err != nil {
				w.posted, w.written = w.posted[:0], 0
				return err
			}
		}
		w.posted, w.written = w.posted[:0], 0
	}
	err := w.err
	w.err = nil
	return err
}

// inFlight reports whether container c is posted and not yet reaped.
func (w *sealedWrites) inFlight(c uint64) bool {
	return len(w.posted) > 0 && c >= w.posted[0].Index && c <= w.posted[len(w.posted)-1].Index
}

// --- WAL glue (no-ops when no WAL is attached) ---

func (s *Server) walAppend(meta engine.ChunkMeta, pbn uint64) {
	if s.wal == nil {
		return
	}
	s.wal.stage(WALRecord{
		Kind: WALAppend, LBA: meta.LBA, PBN: pbn,
		Container: meta.Container, Offset: meta.Offset, CSize: meta.CSize, RawSize: meta.RawSize,
		FP: meta.FP,
	}, meta.Container+1)
}

func (s *Server) walMapLBA(lba, pbn uint64) {
	if s.wal == nil {
		return
	}
	s.wal.stage(WALRecord{Kind: WALMapLBA, LBA: lba, PBN: pbn}, 0)
}

func (s *Server) walRelocate(pbn, container uint64, off uint32) {
	if s.wal == nil {
		return
	}
	s.wal.stage(WALRecord{Kind: WALRelocate, PBN: pbn, Container: container, Offset: off}, container+1)
}

func (s *Server) walRetire(container uint64) {
	if s.wal == nil {
		return
	}
	s.wal.stage(WALRecord{Kind: WALRetire, Container: container}, 0)
}

func (s *Server) walDeleteFP(fp fingerprint.FP) {
	if s.wal == nil {
		return
	}
	s.wal.stage(WALRecord{Kind: WALDeleteFP, FP: fp}, 0)
}

func (s *Server) walCommit() error {
	if s.wal == nil {
		return nil
	}
	// The barrier is the oldest container not yet on the SSD, not the open
	// one: after a failed container write the records that point into it
	// stay staged.
	return s.wal.commit(s.comp.DurableContainers())
}
