package core

import (
	"fmt"
	"math"
	"time"

	"fidr/internal/bufpool"
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
	s.ctr.writes.Inc()
	s.ctr.clientBytes.Add(uint64(len(data)))
	s.ctr.logicalBytes.Add(uint64(len(data)))
	s.ledger.Client(uint64(len(data)))
	s.ledger.Count(hostmodel.EvProtocolWrite, 1)
	tr := s.obs.begin("write", lba)
	tr.adopt(tc)
	defer tr.done()
	s.activeReq = tr
	defer func() { s.activeReq = nil }()

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
	if s.fnic != nil && s.fnic.Buffered() >= s.cfg.BatchChunks {
		return s.tipFIDRBatch(false)
	}
	return nil
}

// Flush processes any partial batch and pushes sealed containers to the
// data SSDs. Call at end of workload (and before relying on SSD-resident
// state).
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
	return s.writeSealed(tr)
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

	cp := bufpool.Get(len(data))
	copy(cp, data)
	s.batch = append(s.batch, pending{lba: lba, data: cp})
	tr.span(StageNICBuffer, from)
	if len(s.batch) >= s.cfg.BatchChunks {
		return s.processBaselineBatch()
	}
	return nil
}

// processBaselineBatch runs the §2.3 write flow over the buffered batch.
func (s *Server) processBaselineBatch() error {
	if len(s.batch) == 0 {
		return nil
	}
	batch := s.batch
	s.batch = nil // handed back, emptied, once the batch is through
	s.ctr.batches.Inc()
	bt := s.obs.beginLinked("batch", batch[0].lba, s.activeReq)
	defer bt.done()

	// 1. The unique-chunk predictor reads the buffered data and guesses
	// which chunks are unique; the batch scheduler groups accordingly.
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

	// 3. FPGA: the hash-core array fingerprints every chunk, fanning the
	// batch across the configured hash lanes; the compression-pipeline
	// array then compresses the predicted-unique chunks. Compressed
	// results alias engine scratch, which stays valid until the next
	// CompressMany call — every Pack in this batch happens before that.
	var backBytes uint64
	t0 := bt.start()
	lanes.Run(len(batch), lanes.Clamp(s.cfg.HashLanes, len(batch)), func(_, i int) {
		batch[i].fp = fingerprint.Of(batch[i].data)
	})
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
	var compDur time.Duration
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

	// 5. Software table management validates predictions against the
	// Hash-PBN table cache. Misprediction repair compresses inline; that
	// time is charged to the compress span, not the lookup span.
	from = bt.start()
	compBefore := compDur
	for i := range batch {
		p := &batch[i]
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
		if p.cdata == nil {
			// Misprediction: a unique chunk was predicted duplicate
			// and skipped compression; it takes another round trip
			// through the FPGA array.
			s.ctr.mispredictions.Inc()
			s.transfer(pcie.HostMemory, devFPGA, uint64(len(p.data)))
			s.ledger.MemPayload(hostmodel.PathHostFPGA, uint64(len(p.data)))
			t0 := bt.start()
			cdata, _, err := s.comp.Compress(p.data)
			if err != nil {
				return err
			}
			compDur += bt.since(t0)
			p.cdata = cdata
			s.transfer(devFPGA, pcie.HostMemory, uint64(len(cdata)))
			s.ledger.MemPayload(hostmodel.PathHostFPGA, uint64(len(cdata)))
			s.ledger.Count(hostmodel.EvDMAChunk, 1)
		}
		if err := s.admitUnique(p.lba, p.fp, p.cdata, len(p.data)); err != nil {
			return err
		}
	}
	bt.add(StageDedupLookup, bt.since(from)-(compDur-compBefore))
	bt.add(StageCompress, compDur)
	if err := s.writeSealed(bt); err != nil {
		return err
	}
	// All chunk bytes are packed (containers copy) or dropped; recycle
	// the batch's host buffers.
	for i := range batch {
		bufpool.Put(batch[i].data)
	}
	s.batch = batch[:0]
	return nil
}

// --- FIDR (§5.3) ---

// fidrWrite runs the §5.3 write flow's first step for one chunk: the NIC
// buffers it in battery-backed NIC memory and the client is acked at once;
// no host resources are touched. When the buffer is full the batch tips
// and the chunk goes into the fresh one. The chunk supersedes whatever the
// §8 read cache holds at its address — a segment's interior extents
// included, not only its first.
func (s *Server) fidrWrite(lba uint64, data []byte, tr *ReqTrace) error {
	s.rcache.invalidate(lba)
	from := tr.start()
	err := s.fnic.BufferWrite(lba, data)
	tr.span(StageNICBuffer, from)
	if err != nic.ErrBufferFull {
		return err
	}
	// Validate sizes the buffer for several Max-size chunks, so the retry
	// into an empty buffer fits.
	if err := s.tipFIDRBatch(false); err != nil {
		return err
	}
	from = tr.start()
	err = s.fnic.BufferWrite(lba, data)
	tr.span(StageNICBuffer, from)
	return err
}

// generation is the server's note on one NIC generation between its tip
// and its commit: the request that tipped it, under whose trace the commit
// links whenever it runs, and the span the tip waited in the NIC's Join
// for the fingerprints the arrival hashers had not finished, which the
// commit's batch trace reports once as its hash stage.
type generation struct {
	tip       *ReqTrace
	hashStart time.Time
	hashDur   time.Duration
}

// tipFIDRBatch runs when the filling buffer holds a batch (and, with now
// set, from Flush on whatever it holds). §5.3's step 2 — the NIC hashes the
// batch — is a pure function of bytes already in NIC memory: the NIC's
// arrival hashers have fingerprinted most of the batch while it filled,
// and the rest is hashed beside steps 3-10 of the batch before: the NIC
// detaches the buffer as a generation, this goroutine commits the previous
// generation, then joins the generation's hashes. Nothing of this batch's
// hashing runs after the call returns.
//
// The new generation's own commit waits for the next tip, unless this is
// Flush or its fill saw a read go past the NIC: reads settle what waits, so
// on read-interleaved traffic deferring would overlap nothing and only move
// the batch from the tipping write onto the next read.
func (s *Server) tipFIDRBatch(now bool) error {
	// A backlog — a generation whose commit failed and the one hashed
	// beside it — settles serially before a new overlap starts: never two
	// generations hashing, never a commit out of order.
	if s.fnic.Waiting() > 1 || s.fnic.Buffered() == 0 {
		if err := s.settle(); err != nil || s.fnic.Buffered() == 0 {
			return err
		}
	}
	now = now || s.fillSawRead
	s.fillSawRead = false

	// Step 2: NIC hash cores fingerprint the batch; only the hash
	// values cross PCIe into host memory.
	overlap := s.fnic.Waiting() > 0
	s.gens = append(s.gens, generation{tip: s.activeReq})
	s.fnic.Tip(overlap)
	var err error
	if overlap {
		s.ctr.overlapped.Inc()
		err = s.commitGeneration()
	}
	g := &s.gens[len(s.gens)-1]
	g.hashStart = s.obs.now()
	n := uint64(s.fnic.Join())
	g.hashDur = s.obs.since(g.hashStart)
	hashBytes := n * fingerprint.Size
	s.transfer(devNIC, pcie.HostMemory, hashBytes)
	s.ledger.Mem(hostmodel.PathNICHost, hashBytes)
	s.ledger.Count(hostmodel.EvDMABatch, 1)
	s.ledger.Count(hostmodel.EvDeviceMgrChunk, n)
	if err != nil {
		return err
	}
	if err := s.crashPoint(CrashPostHash); err != nil {
		return err
	}
	if now {
		return s.settle()
	}
	return nil
}

// settle commits every waiting generation, oldest first. Whatever looks at
// the server past the NIC's filling buffer — a read that missed it, Flush,
// a maintenance verb — settles first, so it observes the state it would
// have observed had every batch been committed by the write that tipped it.
func (s *Server) settle() error {
	if s.fnic == nil {
		return nil
	}
	for s.fnic.Waiting() > 0 {
		if err := s.failIfCrashed(); err != nil {
			return err
		}
		if err := s.commitGeneration(); err != nil {
			return err
		}
	}
	return nil
}

// settleQuietly is settle for the read-outs that return no error (Garbage,
// CapacityReport, ContainerHeatmap): a commit that fails leaves its
// generation at the head of the queue, the read-out describes the state
// before it, and the next write, read or Flush returns the error.
func (s *Server) settleQuietly() { _ = s.settle() }

// commitGeneration runs §5.3 steps 3-10 over the oldest waiting generation.
// Until ScheduleBatch consumes it (step 7) a failure leaves it at the head
// of the queue, and the next tip, read or Flush tries again.
func (s *Server) commitGeneration() error {
	entries := s.fnic.Head()
	g := &s.gens[0]
	s.ctr.batches.Inc()
	bt := s.obs.beginLinked("batch", 0, g.tip)
	defer bt.done()
	if !g.hashStart.IsZero() {
		bt.at(StageHash, g.hashStart, g.hashDur)
		g.hashStart = time.Time{}
	}

	// Step 3: the device manager sends bucket indexes to the Cache
	// HW-Engine (full FIDR only; with software caching this stays on
	// the host).
	if s.cfg.Arch == FIDRFull {
		s.transfer(pcie.HostMemory, devCacheHW, uint64(len(entries))*8)
		s.transfer(devCacheHW, pcie.HostMemory, uint64(len(entries))*8)
	}

	// Steps 4-5: host software scans the cached buckets and determines
	// uniqueness; duplicates update only the LBA-PBA table.
	from := bt.start()
	bs := &s.bs
	bs.flags = append(bs.flags[:0], make([]bool, len(entries))...)
	bs.dupPBN = append(bs.dupPBN[:0], make([]uint64, len(entries))...)
	flags, dupPBN := bs.flags, bs.dupPBN
	// Within-batch duplicates: the first occurrence claims uniqueness;
	// later identical chunks must see it. firstClaim indexes claimed
	// fingerprints so the scan stays O(batch) instead of O(batch²).
	firstClaim, fpToPBN := bs.firstClaim, bs.fpToPBN
	clear(firstClaim)
	clear(fpToPBN)
	for i, e := range entries {
		pbn, found, err := s.cache.Lookup(e.FP)
		if err != nil {
			return err
		}
		switch {
		case found:
			dupPBN[i] = pbn
		default:
			if _, claimed := firstClaim[e.FP]; claimed {
				dupPBN[i] = provisionalPBN
			} else {
				flags[i] = true
				firstClaim[e.FP] = struct{}{}
			}
		}
	}

	bt.span(StageDedupLookup, from)

	// Step 6: uniqueness flags return to the NIC.
	s.transfer(pcie.HostMemory, devNIC, uint64(len(entries)))
	s.ledger.Mem(hostmodel.PathNICHost, uint64(len(entries)))

	// Step 7: the NIC's compression scheduler builds a batch of unique
	// chunks and sends it peer-to-peer to the Compression Engine.
	unique, err := s.fnic.ScheduleBatch(flags)
	if err != nil {
		return err
	}
	s.gens = append(s.gens[:0], s.gens[1:]...)
	var uniqueBytes uint64
	for i := range unique {
		uniqueBytes += uint64(len(unique[i].Data))
	}
	s.transfer(devNIC, devComp, uniqueBytes)

	// Step 8: the engine compresses and packs; only metadata reaches
	// the host.
	from = bt.start()
	if len(unique) > 0 {
		// The compression-pipeline array runs the whole unique batch
		// across the configured lanes; packing and table updates then
		// commit strictly in batch order, so containers and ledgers are
		// byte-identical at any lane count.
		bs.datas = bs.datas[:0]
		for i := range unique {
			bs.datas = append(bs.datas, unique[i].Data)
		}
		rs, err := s.comp.CompressMany(bs.datas)
		if err != nil {
			return err
		}
		if err := s.crashPoint(CrashPrePack); err != nil {
			return err
		}
		for ui, u := range unique {
			meta, err := s.comp.Pack(u.LBA, u.FP, rs[ui].Data, len(u.Data))
			if err != nil {
				return err
			}
			pbn, err := s.recordUnique(meta)
			if err != nil {
				return err
			}
			fpToPBN[u.FP] = pbn
		}
		// Pack copied every chunk into a container; the NIC buffer
		// memory handed over by ScheduleBatch is recycled here.
		for i := range unique {
			bufpool.Put(unique[i].Data)
		}
	}
	bt.span(StageCompress, from)
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
	return s.writeSealed(bt)
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

// admitUnique packs an already-compressed unique chunk (baseline path:
// compressed data sits in host memory) and records its metadata.
func (s *Server) admitUnique(lba uint64, fp fingerprint.FP, cdata []byte, rawSize int) error {
	meta, err := s.comp.Pack(lba, fp, cdata, rawSize)
	if err != nil {
		return err
	}
	_, err = s.recordUnique(meta)
	return err
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

// writeSealed pushes sealed containers to the data SSDs. The baseline
// holds container data in host memory (the SSD DMA-reads it out); FIDR
// transfers engine -> SSD peer-to-peer under the switch.
func (s *Server) writeSealed(tr *ReqTrace) error {
	s.commitTally()
	defer s.syncCapacityGauges()
	if _, ok := s.comp.NextSealed(); ok {
		from := tr.start()
		// A container leaves the engine's queue only once it is on the
		// SSD: after a failed write it is still there, readable, and goes
		// first at the next writeSealed.
		for sc, ok := s.comp.NextSealed(); ok; sc, ok = s.comp.NextSealed() {
			off := sc.Index * uint64(len(sc.Data))
			if err := s.dataSSD.Write(off, sc.Data); err != nil {
				return err
			}
			if err := s.crashPoint(CrashMidContainerFlush); err != nil {
				return err
			}
			n := uint64(len(sc.Data))
			if s.cfg.Arch == Baseline {
				s.transfer(pcie.HostMemory, devDataSSD, n)
				s.ledger.MemPayload(hostmodel.PathHostSSD, n)
			} else {
				s.transfer(devComp, devDataSSD, n)
			}
			// Data-SSD queues live in host memory in both architectures;
			// container writes are sequential and batched, so the stack
			// cost is per container, not per chunk.
			s.ledger.Count(hostmodel.EvDataSSDIO, 1)
			s.comp.PopSealed()
		}
		tr.span(StageSSDIO, from)
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
