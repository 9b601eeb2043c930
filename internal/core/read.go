package core

import (
	"fmt"
	"math"
	"slices"

	"fidr/internal/chunk"
	"fidr/internal/hostmodel"
	"fidr/internal/lbatable"
	"fidr/internal/pcie"
)

// ErrNotFound is returned for reads of never-written LBAs.
var ErrNotFound = fmt.Errorf("core: LBA not found")

// Read returns the chunk most recently written at lba (§2.2 / §5.3 read
// flows). Data is served, in priority order, from: the write buffer (NIC
// buffer in FIDR, host batch buffer in the baseline), the engine's open
// container, or the data SSDs with decompression.
func (s *Server) Read(lba uint64) ([]byte, error) {
	return s.ReadTraced(lba, nil)
}

// ReadTraced is Read with a front-end trace context (see WriteTraced).
func (s *Server) ReadTraced(lba uint64, tc *TraceContext) ([]byte, error) {
	if err := s.failIfCrashed(); err != nil {
		return nil, err
	}
	s.ctr.reads.Inc()
	s.ledger.Count(hostmodel.EvProtocolRead, 1)
	tr := s.obs.begin("read", lba)
	tr.adopt(tc)
	defer tr.done()
	s.activeReq = tr
	defer func() { s.activeReq = nil }()

	var out []byte
	var err error
	if s.cfg.Arch == Baseline {
		out, err = s.baselineRead(lba, tr)
	} else {
		out, err = s.fidrRead(lba, tr)
	}
	if err == nil {
		// A chunk's size is whatever the chunker cut; charge the bytes
		// actually served.
		s.ctr.clientBytes.Add(uint64(len(out)))
		s.ledger.Client(uint64(len(out)))
	}
	return out, err
}

// ReadRange returns n consecutive chunks starting at lba, concatenated.
// Requests larger than one chunk are common at the client (the paper's
// storage protocol carries block ranges); the server resolves each chunk
// independently because compressed placements are unrelated.
func (s *Server) ReadRange(lba uint64, n int) ([]byte, error) {
	return s.ReadRangeTraced(lba, n, nil)
}

// ReadRangeTraced is ReadRange with a front-end trace context; each
// chunk read joins the same trace. tc may be nil.
func (s *Server) ReadRangeTraced(lba uint64, n int, tc *TraceContext) ([]byte, error) {
	return ReadRange(s, lba, n, func(at uint64) ([]byte, error) { return s.ReadTraced(at, tc) })
}

// CheckRange reports whether consecutive addresses name consecutive
// chunks, which is what ReadRange and the wire's batch ops assume: nil
// under fixed chunking, the error those operations answer under CDC.
func (s *Server) CheckRange() error {
	if s.cfg.Chunking.Mode == chunk.ModeCDC {
		// Addressing, not persistence: lba+i walks chunk indexes, and only
		// the chunker knows where a CDC stream's next extent starts.
		return fmt.Errorf("core: ReadRange and batch ops address fixed chunk indexes; CDC segments and extents are written and read individually")
	}
	return nil
}

// ReadRange is the one range loop behind every front end's ReadRange
// (Server and the async adapter): after st's CheckRange gate, read(at)
// fetches the chunk at each address lba, lba+1, ..., lba+n-1 and the n
// chunks are returned concatenated. A range whose last address would
// wrap past the top of the address space is refused before any read.
func ReadRange(st interface {
	CheckRange() error
	ChunkSize() int
}, lba uint64, n int, read func(at uint64) ([]byte, error)) ([]byte, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: read of %d chunks", n)
	}
	if lba > math.MaxUint64-uint64(n-1) {
		return nil, fmt.Errorf("core: range of %d chunks at LBA %d wraps the address space", n, lba)
	}
	if err := st.CheckRange(); err != nil {
		return nil, err
	}
	out := make([]byte, 0, n*st.ChunkSize())
	for i := 0; i < n; i++ {
		chunk, err := read(lba + uint64(i))
		if err != nil {
			return nil, fmt.Errorf("core: range chunk %d: %w", i, err)
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// --- Baseline read (§2.3, Figure 2b) ---

func (s *Server) baselineRead(lba uint64, tr *ReqTrace) ([]byte, error) {
	// Freshest data may still sit in the host request buffer.
	from := tr.start()
	for i := len(s.batch) - 1; i >= 0; i-- {
		if s.batch[i].lba == lba {
			out := make([]byte, len(s.batch[i].data))
			copy(out, s.batch[i].data)
			tr.span(StageNICBuffer, from)
			s.ctr.readCacheHits.Inc()
			// Buffer scan plus NIC send of the hit.
			s.ledger.MemPayload(hostmodel.PathNICHost, uint64(len(out)))
			s.transfer(pcie.HostMemory, devNIC, uint64(len(out)))
			return out, nil
		}
	}
	tr.span(StageNICBuffer, from)
	from = tr.start()
	pba, err := s.resolve(lba)
	if err != nil {
		return nil, err
	}
	tr.span(StageLBAResolve, from)
	cdata, fromSSD, err := s.fetchCompressed(pba, tr)
	if err != nil {
		return nil, err
	}
	csize := uint64(pba.CSize)
	raw := uint64(pba.RawSize)
	if fromSSD {
		// SSD -> host memory.
		s.transfer(devDataSSD, pcie.HostMemory, csize)
		s.ledger.MemPayload(hostmodel.PathHostSSD, csize)
		s.ledger.Count(hostmodel.EvDataSSDIO, 1)
	}
	// Host -> decompression FPGA, decompress, FPGA -> host.
	s.transfer(pcie.HostMemory, devDecomp, csize)
	s.ledger.MemPayload(hostmodel.PathHostFPGA, csize)
	from = tr.start()
	out, err := s.decomp.Decompress(cdata, int(raw))
	if err != nil {
		return nil, err
	}
	tr.span(StageDecompress, from)
	s.transfer(devDecomp, pcie.HostMemory, raw)
	s.ledger.MemPayload(hostmodel.PathHostFPGA, raw)
	s.ledger.Count(hostmodel.EvDMAChunk, 1)
	// Host -> NIC -> client.
	s.transfer(pcie.HostMemory, devNIC, raw)
	s.ledger.MemPayload(hostmodel.PathNICHost, raw)
	s.ledger.Count(hostmodel.EvDMAChunk, 1)
	return out, nil
}

// --- FIDR read (§5.3, Figure 6b) ---

func (s *Server) fidrRead(lba uint64, tr *ReqTrace) ([]byte, error) {
	// Step 2: the NIC searches its in-NIC write buffer first.
	from := tr.start()
	if data, ok := s.fnic.LookupRead(lba); ok {
		s.ctr.nicReadHits.Inc()
		tr.span(StageNICBuffer, from)
		out := make([]byte, len(data))
		copy(out, data)
		return out, nil
	}
	tr.span(StageNICBuffer, from)
	// The read goes past the NIC: whatever waits there is committed first,
	// and the batch now filling will be committed by the write that tips it.
	s.fillSawRead = true
	if err := s.settle(); err != nil {
		return nil, err
	}
	// §8 extension: hot-block read cache in host memory.
	if data, ok := s.rcache.get(lba); ok {
		s.ctr.readCacheHits.Inc()
		s.ledger.MemPayload(hostmodel.PathNICHost, uint64(len(data)))
		s.transfer(pcie.HostMemory, devNIC, uint64(len(data)))
		return data, nil
	}
	// Steps 3-4: LBA goes to the host, which resolves the PBA.
	s.transfer(devNIC, pcie.HostMemory, 8)
	from = tr.start()
	pba, err := s.resolve(lba)
	if err != nil {
		return nil, err
	}
	tr.span(StageLBAResolve, from)
	// The device manager orchestrates two P2P hops per read (SSD ->
	// engine, engine -> NIC), each a doorbell/completion round.
	s.ledger.Count(hostmodel.EvDeviceMgrChunk, 2)

	cdata, fromSSD, err := s.fetchCompressed(pba, tr)
	if err != nil {
		return nil, err
	}
	csize := uint64(pba.CSize)
	raw := uint64(pba.RawSize)
	// Steps 5-7: device manager orchestrates SSD -> Decompression
	// Engine -> NIC, all peer-to-peer; host memory never sees the data.
	if fromSSD {
		s.transfer(devDataSSD, devDecomp, csize)
		// §7.5 future-work extension: with the data-SSD queues
		// offloaded to the FPGA, reads cost no host IO-stack time.
		if !s.cfg.OffloadDataSSDQueues {
			s.ledger.Count(hostmodel.EvDataSSDIO, 1)
		}
	} else {
		s.transfer(devComp, devDecomp, csize)
	}
	from = tr.start()
	out, err := s.decomp.Decompress(cdata, int(raw))
	if err != nil {
		return nil, err
	}
	tr.span(StageDecompress, from)
	// Step 8: the host tells the NIC to fetch the decompressed chunk
	// from the engine (doorbell only; no host-memory data traffic).
	s.transfer(devDecomp, devNIC, raw)
	s.rcache.put(lba, out)
	return out, nil
}

// resolve maps an LBA to its chunk's level-2 record (placement, compressed
// size, uncompressed length), charging the LBA-PBA table work.
func (s *Server) resolve(lba uint64) (lbatable.PBA, error) {
	s.ledger.Count(hostmodel.EvLBATableOp, 1)
	pba, err := s.lba.ResolveLBA(lba)
	if err == lbatable.ErrUnmapped {
		return lbatable.PBA{}, ErrNotFound
	}
	return pba, err
}

// fetchCompressed returns the chunk's compressed bytes, either from the
// engine's open container (not yet on an SSD) or from the data SSD. The
// result is a view, of that container or of the server's compressed-read
// scratch, which every caller decompresses or packs (both copy) at once;
// it is dead at the next fetchCompressed or Pack.
func (s *Server) fetchCompressed(pba lbatable.PBA, tr *ReqTrace) (data []byte, fromSSD bool, err error) {
	if data, ok := s.comp.ReadPending(pba.Container, pba.Offset, pba.CSize); ok {
		s.ctr.pendingReads.Inc()
		return data, false, nil
	}
	off := pba.ByteOffset(s.cfg.ContainerSize)
	from := tr.start()
	s.cread = slices.Grow(s.cread[:0], int(pba.CSize))
	data = s.cread[:pba.CSize]
	if err := s.dataSSD.ReadInto(data, off); err != nil {
		return nil, false, err
	}
	tr.span(StageSSDIO, from)
	return data, true, nil
}
