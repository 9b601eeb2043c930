package core

import (
	"fmt"
	"math"
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
// would pass 2^64-1 is refused whole. The chunks are buffered (host memory
// for the baseline, NIC memory for FIDR) and processed when a full
// accelerator batch accumulates.
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
	// fill): it commits before this write's chunks join the buffer, and a
	// write it refuses buffers and counts nothing. Both architectures tip
	// as the chunk that fills a batch buffers, so no batch grows past
	// BatchChunks; a tip that fails mid-segment returns with that
	// segment's earlier chunks buffered.
	var err error
	switch {
	case s.fnic != nil && s.fnic.Buffered() >= s.cfg.BatchChunks:
		err = s.tipFIDRBatch(false)
	case s.staged || len(s.batch) >= s.cfg.BatchChunks:
		err = s.processBaselineBatch()
	}
	if err != nil {
		return err
	}
	s.ctr.writes.Inc()
	s.ctr.clientBytes.Add(uint64(len(data)))
	s.ctr.logicalBytes.Add(uint64(len(data)))
	s.ledger.Client(uint64(len(data)))
	s.ledger.Count(hostmodel.EvProtocolWrite, 1)

	// The one cut loop: the baseline's chunker is host software (its NIC
	// DMA-writes raw bytes), FIDR's runs in the NIC; either way each chunk
	// goes to the architecture's buffer under its own address.
	s.cbounds = s.chunker.AppendBoundaries(s.cbounds[:0], data)
	prev := 0
	for _, b := range s.cbounds {
		at := lba + uint64(prev/unit)
		var err error
		if s.cfg.Arch == Baseline {
			err = s.baselineWrite(at, data[prev:b], tr)
		} else {
			err = s.fidrWrite(at, data[prev:b], tr)
		}
		if err != nil {
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
	var err error
	switch s.cfg.Arch {
	case Baseline:
		err = s.processBaselineBatch()
	default:
		err = s.tipFIDRBatch(true)
	}
	if err != nil {
		return err
	}
	s.comp.Flush()
	tr := s.obs.begin("flush", 0)
	defer tr.done()
	return s.writeSealed(tr, true)
}

// --- Baseline (extended CIDR, §2.3) ---

// baselineWrite buffers one chunk in the host request buffer.
func (s *Server) baselineWrite(lba uint64, data []byte, tr *ReqTrace) error {
	// NIC DMA-writes the client data into the host request buffer.
	from := tr.start()
	s.pnic.ReceiveWrite(data)
	s.transfer(devNIC, pcie.HostMemory, uint64(len(data)))
	s.ledger.MemPayload(hostmodel.PathNICHost, uint64(len(data)))
	s.ledger.Count(hostmodel.EvDMAChunk, 1)

	off := len(s.batchArena)
	s.batchArena = append(s.batchArena, data...)
	end := len(s.batchArena)
	s.batch = append(s.batch, pending{lba: lba, data: s.batchArena[off:end:end]})
	tr.span(StageNICBuffer, from)
	if len(s.batch) >= s.cfg.BatchChunks {
		return s.processBaselineBatch()
	}
	return nil
}

// processBaselineBatch runs the §2.3 write flow over the buffered batch.
// An entry leaves the buffer once its step 5 is done, so a failure leaves
// the rest buffered and readable, and the next write or Flush retries it
// from the entry that failed, without running steps 1-4 again once they
// have run (staged).
func (s *Server) processBaselineBatch() error {
	if len(s.batch) == 0 {
		return nil
	}
	batch := s.batch
	bt := s.obs.beginLinked("batch", batch[0].lba, s.activeReq)
	defer bt.done()
	var compDur time.Duration
	if !s.staged {
		// 1. The unique-chunk predictor reads the buffered data and
		// guesses which chunks are unique; the batch scheduler groups
		// accordingly.
		from := bt.start()
		for i := range batch {
			batch[i].predictedUnique = s.pred.Predict(batch[i].data)
			s.ledger.Count(hostmodel.EvBatchSchedChunk, 1)
		}
		bt.span(StageDedupLookup, from)

		// 2. One-time transfer of the whole batch to the FPGA array.
		var total uint64
		for i := range batch {
			total += uint64(len(batch[i].data))
		}
		s.transfer(pcie.HostMemory, devFPGA, total)
		s.ledger.MemPayload(hostmodel.PathHostFPGA, total)
		s.ledger.Count(hostmodel.EvDMAChunk, uint64(len(batch)))

		// 3. FPGA: the hash-core array fingerprints every chunk, on the
		// caller and up to HashLanes-1 of the pool's helpers; the
		// compression-pipeline array then compresses the predicted-unique
		// chunks. Compressed results alias engine scratch, which stays
		// valid until the next CompressMany call — every Pack in this
		// batch, a retried commit's included, happens before that.
		var backBytes uint64
		t0 := bt.start()
		s.bs.hashed = batch
		s.pool.Run(s.hashes, len(batch), s.cfg.HashLanes)
		s.bs.hashed = nil
		bt.add(StageHash, bt.since(t0))
		if err := s.crashPoint(CrashPostHash); err != nil {
			return err
		}
		backBytes += uint64(len(batch)) * fingerprint.Size
		datas := s.bs.datas[:0]
		for i := range batch {
			if batch[i].predictedUnique {
				datas = append(datas, batch[i].data)
			}
		}
		s.bs.datas = datas
		if len(datas) > 0 {
			t1 := bt.start()
			rs, err := s.comp.CompressMany(datas)
			if err != nil {
				return err
			}
			compDur += bt.since(t1)
			for i := range batch { // rs is in batch order of the predicted-unique chunks
				if batch[i].predictedUnique {
					batch[i].cdata = rs[0].Data
					backBytes += uint64(len(rs[0].Data))
					rs = rs[1:]
				}
			}
		}
		// 4. Hashes and compressed predicted-uniques return to host memory.
		s.transfer(devFPGA, pcie.HostMemory, backBytes)
		s.ledger.MemPayload(hostmodel.PathHostFPGA, backBytes)
		if err := s.crashPoint(CrashPrePack); err != nil {
			return err
		}
		s.staged = true
	}

	// 5. Software table management validates predictions against the
	// Hash-PBN table cache. Misprediction repair compresses inline; that
	// time is charged to the compress span, not the lookup span.
	from := bt.start()
	compBefore := compDur
	for ; len(s.batch) > 0; s.batch = s.batch[1:] {
		p := &s.batch[0]
		pbn, found, err := s.cache.Lookup(p.fp)
		if err != nil {
			return err
		}
		s.pred.Confirm(p.predictedUnique, !found)
		if found {
			// Duplicate: only the LBA-PBA table is updated. A
			// wastefully compressed copy (false unique) is dropped.
			s.ledger.Count(hostmodel.EvLBATableOp, 1)
			if err := s.lba.MapLBA(p.lba, pbn); err != nil {
				return err
			}
			s.walMapLBA(p.lba, pbn)
			s.tl.dup(uint64(len(p.data)))
			continue
		}
		if p.cdata != nil {
			meta, err := s.comp.Pack(p.lba, p.fp, p.cdata, len(p.data))
			if err == nil {
				_, err = s.recordUnique(meta)
			}
			if err != nil {
				return err
			}
			continue
		}
		// Misprediction: a unique chunk was predicted duplicate and
		// skipped compression; it takes another round trip through the
		// FPGA array, which compresses it and the host packs it.
		s.ctr.mispredictions.Inc()
		s.transfer(pcie.HostMemory, devFPGA, uint64(len(p.data)))
		s.ledger.MemPayload(hostmodel.PathHostFPGA, uint64(len(p.data)))
		t0 := bt.start()
		meta, err := s.comp.CompressPack(p.lba, p.fp, p.data)
		if err != nil {
			return err
		}
		compDur += bt.since(t0)
		s.transfer(devFPGA, pcie.HostMemory, uint64(meta.CSize))
		s.ledger.MemPayload(hostmodel.PathHostFPGA, uint64(meta.CSize))
		s.ledger.Count(hostmodel.EvDMAChunk, 1)
		if _, err := s.recordUnique(meta); err != nil {
			return err
		}
	}
	bt.add(StageDedupLookup, bt.since(from)-(compDur-compBefore))
	bt.add(StageCompress, compDur)
	// All chunk bytes are packed (containers copy) or dropped.
	s.batch, s.batchArena, s.staged = batch[:0], s.batchArena[:0], false
	s.ctr.batches.Inc()
	return s.writeSealed(bt, false)
}

// hashPending is the baseline hash array's item function: it fingerprints
// chunk i of the batch in flight.
func (s *Server) hashPending(i int) {
	p := &s.bs.hashed[i]
	p.fp = fingerprint.Of(p.data)
}

// --- FIDR (§5.3) ---

// fidrWrite runs the §5.3 write flow's first step for one chunk: the NIC
// buffers it in battery-backed NIC memory and the client is acked at once.
// When the buffer is full the batch tips and the chunk goes into the fresh
// one. The chunk supersedes whatever the §8 read cache holds at its
// address — a segment's interior extents included, not only its first.
// Once buffered, the chunk pays for the held batch's next table lookup
// (steps 4-5) and, if that flags a unique, its compress and pack (step 8),
// so a full fill has run all of them by its tip; one that fails fails no
// write, it stops the cursors and the next tip returns it. The chunk that
// fills the batch tips it.
func (s *Server) fidrWrite(lba uint64, data []byte, tr *ReqTrace) error {
	s.rcache.invalidate(lba)
	from := tr.start()
	err := s.fnic.BufferWrite(lba, data)
	tr.span(StageNICBuffer, from)
	if err == nic.ErrBufferFull {
		// Validate sizes the buffer for several Max-size chunks, so the
		// retry into an empty buffer fits.
		if err := s.tipFIDRBatch(false); err != nil {
			return err
		}
		from = tr.start()
		err = s.fnic.BufferWrite(lba, data)
		tr.span(StageNICBuffer, from)
	}
	if err != nil {
		return err
	}
	if s.held.lookupErr == nil {
		if s.held.lookupErr = s.lookupHeld(1); s.held.lookupErr == nil {
			s.held.lookupErr = s.packHeld()
		}
	}
	if s.fnic.Buffered() >= s.cfg.BatchChunks {
		return s.tipFIDRBatch(false)
	}
	return nil
}

// heldBatch is the server's note on the batch the NIC holds between its
// tip and its commit: the request that tipped it, under whose trace the
// commit links whenever it runs; the span the tip waited in the NIC's Join
// for the fingerprints the pool's helpers had not finished, which the
// commit's batch trace reports once as its hash stage; and the cursors of
// its table lookups and packs. looked of its entries have been looked up,
// in batch order, into bs.flags and bs.dupPBN, and packed of them packed
// (packHeld), taking lookupDur from lookupStart on and packDur from
// packStart on, which the batch trace reports as its dedup_lookup and
// compress stages; lookupErr is a lookup or pack that failed during the
// fill, which the commit returns once before it retries that entry.
type heldBatch struct {
	tip         *ReqTrace
	hashStart   time.Time
	hashDur     time.Duration
	looked      int
	lookupStart time.Time
	lookupDur   time.Duration
	packed      int
	packStart   time.Time
	packDur     time.Duration
	lookupErr   error
}

// tipFIDRBatch runs when the filling buffer holds a batch (and, with now
// set, from Flush on whatever it holds). §5.3's step 2 — the NIC hashes the
// batch — is a pure function of bytes already in NIC memory: the pool's
// helpers have fingerprinted most of the batch while it filled, and the
// rest is hashed beside steps 3-10 of the batch before. The NIC starts the
// tip, this goroutine commits the held batch — whose lookups and packs the
// fill's writes have already run, one per chunk — and only then does the
// NIC detach the fill into the emptied slot and join its hashes. Nothing
// of this batch's hashing runs after the call returns. A commit that fails
// returns before the detach: the failed batch stays held, and the fill
// stays attached and readable.
//
// The new batch's cursors start at its first entry. Its lookups and packs
// run as the next fill's writes buffer, and its commit waits for the next
// tip, reads or not (the NIC answers them from both buffers), unless this
// is Flush.
func (s *Server) tipFIDRBatch(now bool) error {
	if s.fnic.Buffered() == 0 {
		return s.commitHeld()
	}
	// Step 2: NIC hash cores fingerprint the batch; only the hash
	// values cross PCIe into host memory.
	s.fnic.Tip()
	if s.fnic.Held() {
		s.ctr.overlapped.Inc()
		if err := s.commitBatch(false); err != nil {
			return err
		}
	}
	s.held = heldBatch{tip: s.activeReq, hashStart: s.obs.now()}
	n := uint64(s.fnic.Join())
	s.held.hashDur = s.obs.since(s.held.hashStart)
	bs := &s.bs
	bs.flags = append(bs.flags[:0], make([]bool, n)...)
	bs.dupPBN = append(bs.dupPBN[:0], make([]uint64, n)...)
	clear(bs.firstClaim)
	bs.metas = bs.metas[:0]
	hashBytes := n * fingerprint.Size
	s.transfer(devNIC, pcie.HostMemory, hashBytes)
	s.ledger.Mem(hostmodel.PathNICHost, hashBytes)
	s.ledger.Count(hostmodel.EvDMABatch, 1)
	s.ledger.Count(hostmodel.EvDeviceMgrChunk, n)
	if err := s.crashPoint(CrashPostHash); err != nil {
		return err
	}
	if now {
		return s.commitHeld()
	}
	return nil
}

// commitHeld commits the batch the NIC holds, if any, and returns with no
// container write in flight. Flush and the maintenance verbs, which look
// at the server past the NIC, call it first, so they observe the state
// they would have observed had every batch been committed by the write
// that tipped it; a read needs none of it, since the NIC answers the held
// chunks itself. This is also what keeps the held batch's early lookups
// and packs exact: nothing else touches the table cache or the open
// container between its hold and its commit. The read-outs that return no
// error (Garbage, CapacityReport, ContainerHeatmap) drop its error: the
// failed batch stays held, the read-out describes the state before it, and
// the next tip, Flush or maintenance verb returns the error.
func (s *Server) commitHeld() error {
	if err := s.failIfCrashed(); err != nil {
		return err
	}
	if s.fnic == nil || !s.fnic.Held() {
		return s.reapSealed()
	}
	return s.commitBatch(true)
}

// commitBatch runs §5.3 steps 3-10 over the held batch, of whose steps 4-5
// and 8 it runs only the lookups and packs the fill left (normally none),
// then publishes it and hands writeSealed the sealed containers. Until
// ScheduleBatch consumes it (step 7) a failure leaves it held, and the
// next tip, Flush or maintenance verb tries again, from the entry that
// failed.
func (s *Server) commitBatch(wait bool) error {
	entries := s.fnic.Head()
	h := &s.held
	bt := s.obs.beginLinked("batch", 0, h.tip)
	defer bt.done()
	if !h.hashStart.IsZero() {
		bt.at(StageHash, h.hashStart, h.hashDur)
		h.hashStart = time.Time{}
	}

	// Step 3: the device manager sends bucket indexes to the Cache
	// HW-Engine (full FIDR only; with software caching this stays on
	// the host).
	if s.cfg.Arch == FIDRFull {
		s.transfer(pcie.HostMemory, devCacheHW, uint64(len(entries))*8)
		s.transfer(devCacheHW, pcie.HostMemory, uint64(len(entries))*8)
	}

	// Steps 4-5 and step 8's compress and pack: what the fill left.
	if err := h.lookupErr; err != nil {
		h.lookupErr = nil
		return err
	}
	if err := s.lookupHeld(len(entries)); err != nil {
		return err
	}
	bt.at(StageDedupLookup, h.lookupStart, h.lookupDur)
	if err := s.packHeld(); err != nil {
		return err
	}
	bs := &s.bs
	flags, dupPBN, fpToPBN := bs.flags, bs.dupPBN, bs.fpToPBN
	clear(fpToPBN)

	// Step 6: uniqueness flags return to the NIC.
	s.transfer(pcie.HostMemory, devNIC, uint64(len(entries)))
	s.ledger.Mem(hostmodel.PathNICHost, uint64(len(entries)))

	// Step 7: the NIC's compression scheduler builds a batch of unique
	// chunks and sends it peer-to-peer to the Compression Engine.
	unique, err := s.fnic.ScheduleBatch(flags)
	if err != nil {
		return err
	}
	// Consumed, the batch is never retried: it counts once, here.
	s.ctr.batches.Inc()
	var uniqueBytes uint64
	for i := range unique {
		uniqueBytes += uint64(unique[i].Size)
	}
	s.transfer(devNIC, devComp, uniqueBytes)

	// Step 8: the engine packed the unique chunks in batch order while
	// the next batch filled; only their metadata reaches the host.
	from := s.obs.now()
	if len(unique) > 0 {
		if err := s.crashPoint(CrashPrePack); err != nil {
			return err
		}
		for _, meta := range bs.metas {
			pbn, err := s.recordUnique(meta)
			if err != nil {
				return err
			}
			fpToPBN[meta.FP] = pbn
		}
	}
	h.packDur += s.obs.since(from)
	bt.at(StageCompress, h.packStart, h.packDur)
	metaBytes := uint64(len(unique)) * 16
	s.transfer(devComp, pcie.HostMemory, metaBytes)
	s.ledger.Mem(hostmodel.PathHostFPGA, metaBytes)

	// Apply LBA mappings strictly in request order so that a later
	// write to an LBA (unique or duplicate) wins over an earlier one in
	// the same batch.
	for i, e := range entries {
		var pbn uint64
		switch {
		case flags[i]:
			p, ok := fpToPBN[e.FP]
			if !ok {
				return fmt.Errorf("core: unique chunk %v was not admitted", e.FP)
			}
			pbn = p
		case dupPBN[i] == provisionalPBN:
			p, ok := fpToPBN[e.FP]
			if !ok {
				return fmt.Errorf("core: within-batch duplicate of %v lost its unique twin", e.FP)
			}
			pbn = p
			s.tl.dup(uint64(e.Size))
		default:
			pbn = dupPBN[i]
			s.tl.dup(uint64(e.Size))
		}
		s.ledger.Count(hostmodel.EvLBATableOp, 1)
		if err := s.lba.MapLBA(e.LBA, pbn); err != nil {
			return err
		}
		// Log every mapping — including ones AppendChunk already
		// created — so replay reproduces same-LBA ordering exactly (a
		// duplicate followed by a unique write of the same LBA must
		// replay in that order).
		s.walMapLBA(e.LBA, pbn)
	}

	// Steps 9-10: sealed containers go engine -> data SSD peer-to-peer.
	return s.writeSealed(bt, wait)
}

// lookupHeld runs up to n of the held batch's remaining table lookups,
// §5.3 steps 4-5, in batch order: host software scans the cached buckets
// and determines uniqueness; duplicates will update only the LBA-PBA
// table. Within-batch duplicates: the first occurrence claims uniqueness,
// and later identical chunks must see it. firstClaim indexes claimed
// fingerprints so the scan stays O(batch) instead of O(batch²). An entry
// whose lookup fails stays unlooked, for the next call to retry.
func (s *Server) lookupHeld(n int) error {
	h, bs := &s.held, &s.bs
	entries := s.fnic.Head()
	if h.looked >= len(entries) {
		return nil
	}
	from := s.obs.now()
	if h.lookupStart.IsZero() {
		h.lookupStart = from
	}
	var err error
	for end := min(h.looked+n, len(entries)); h.looked < end; h.looked++ {
		i := h.looked
		fp := entries[i].FP
		var pbn uint64
		var found bool
		if pbn, found, err = s.cache.Lookup(fp); err != nil {
			break
		}
		switch {
		case found:
			bs.dupPBN[i] = pbn
		default:
			if _, claimed := bs.firstClaim[fp]; claimed {
				bs.dupPBN[i] = provisionalPBN
			} else {
				bs.flags[i] = true
				bs.firstClaim[fp] = struct{}{}
			}
		}
	}
	h.lookupDur += s.obs.since(from)
	return err
}

// packHeld runs step 8 for the held batch up to its lookup cursor: each
// first-claim unique is compressed from NIC memory and packed into the
// open container on the caller, in batch order, its metadata kept in
// bs.metas for the commit. One that fails stays unpacked, for a retry.
func (s *Server) packHeld() error {
	h, bs := &s.held, &s.bs
	entries := s.fnic.Head()
	for ; h.packed < h.looked; h.packed++ {
		i := h.packed
		if !bs.flags[i] {
			continue
		}
		from := s.obs.now()
		if h.packStart.IsZero() {
			h.packStart = from
		}
		meta, err := s.comp.CompressPack(entries[i].LBA, entries[i].FP, s.fnic.HeldData(i))
		h.packDur += s.obs.since(from)
		if err != nil {
			return err
		}
		bs.metas = append(bs.metas, meta)
	}
	return nil
}

// provisionalPBN marks a within-batch duplicate whose unique twin has not
// been admitted yet.
const provisionalPBN = ^uint64(0)

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

// recordUnique updates the LBA-PBA table and the Hash-PBN cache for a
// newly packed unique chunk, returning its PBN.
func (s *Server) recordUnique(meta engine.ChunkMeta) (uint64, error) {
	s.ledger.Count(hostmodel.EvLBATableOp, 1)
	pbn, err := s.lba.Append(meta.LBA, meta.PBA)
	if err != nil {
		return 0, err
	}
	if err := s.cache.Insert(meta.FP, pbn); err != nil {
		return 0, err
	}
	for uint64(len(s.pbnFP)) <= pbn {
		s.pbnFP = append(s.pbnFP, fingerprint.FP{})
	}
	s.pbnFP[pbn] = meta.FP
	s.walAppend(meta, pbn)
	s.fpLive++
	s.tl.uniques++
	s.tl.stored += uint64(meta.CSize)
	s.tl.compSaved += uint64(meta.RawSize - meta.CSize)
	return pbn, nil
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
// the crash point. The baseline's container data crosses host memory;
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
