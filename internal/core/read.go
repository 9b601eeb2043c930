package core

import (
	"errors"
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
// flows) in a fresh slice the caller owns. Data is served, in priority
// order, from: the write buffer (NIC memory in FIDR, the host request
// buffer in the baseline), the engine's open container, or the data SSDs
// with decompression.
func (s *Server) Read(lba uint64) ([]byte, error) {
	return s.ReadAppend(nil, lba, nil)
}

// ReadTraced is Read with a front-end trace context (see WriteTraced).
func (s *Server) ReadTraced(lba uint64, tc *TraceContext) ([]byte, error) {
	return s.ReadAppend(nil, lba, tc)
}

// ReadAppend is the one read body: it appends the chunk at lba to dst and
// returns the extended slice (nil on error). Every source writes straight
// into dst — the NIC buffer and read cache copy, the decompressor decodes
// there — so a front end that passes its send buffer (a connection's
// frame buffer) gets the chunk with no allocation. tc may be nil.
func (s *Server) ReadAppend(dst []byte, lba uint64, tc *TraceContext) ([]byte, error) {
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

	// Both flows search the write buffer first (§5.3 read step 2): the
	// filling buffer, then the held batch, which in FIDR commits at the next
	// tip whatever reads come first.
	start := len(dst)
	from := tr.start()
	data, hit := s.wbuf.LookupRead(lba)
	tr.span(StageNICBuffer, from)
	var err error
	switch {
	case hit && s.cfg.Arch == Baseline:
		// Buffer lookup plus NIC send of the hit.
		s.ctr.readCacheHits.Inc()
		s.ledger.MemPayload(hostmodel.PathNICHost, uint64(len(data)))
		s.transfer(pcie.HostMemory, devNIC, uint64(len(data)))
		dst = append(dst, data...)
	case hit:
		s.ctr.nicReadHits.Inc()
		dst = append(dst, data...)
	case s.cfg.Arch == Baseline:
		dst, err = s.baselineRead(dst, lba, tr)
	default:
		dst, err = s.fidrRead(dst, lba, tr)
	}
	if err != nil {
		return nil, err
	}
	// A chunk's size is whatever the chunker cut; charge the bytes
	// actually served.
	n := uint64(len(dst) - start)
	s.ctr.clientBytes.Add(n)
	s.ledger.Client(n)
	return dst, nil
}

// ReadRange returns the n x ChunkSize bytes stored from lba on.
// Requests larger than one chunk are common at the client (the paper's
// storage protocol carries block ranges); the server resolves each chunk
// independently because compressed placements are unrelated.
func (s *Server) ReadRange(lba uint64, n int) ([]byte, error) {
	return s.ReadRangeTraced(lba, n, nil)
}

// ReadRangeTraced is ReadRange with a front-end trace context; each
// chunk read joins the same trace. tc may be nil.
func (s *Server) ReadRangeTraced(lba uint64, n int, tc *TraceContext) ([]byte, error) {
	return s.ReadRangeAppend(nil, lba, n, tc)
}

// ReadRangeAppend is ReadRangeTraced appending to dst, chunk by chunk
// through ReadAppend.
func (s *Server) ReadRangeAppend(dst []byte, lba uint64, n int, tc *TraceContext) ([]byte, error) {
	return ReadRange(s, dst, lba, n, func(dst []byte, at uint64) ([]byte, error) { return s.ReadAppend(dst, at, tc) })
}

// rangeSizedOnce is the largest range output ReadRange allocates before
// its first read: the largest wire payload, so a wire batch read is one
// allocation at most.
const rangeSizedOnce = 1 << 20

// ReadRange is the one range loop behind every front end's ReadRange
// (Server and the async adapter): it appends exactly n x ChunkSize bytes
// starting at lba to dst. read(dst, at) appends the chunk at each address
// to dst, and each chunk advances the address by its length in the
// chunking's units: under fixed chunking that visits lba, lba+1, ...,
// lba+n-1; under CDC it walks consecutive extents and truncates the last.
// The output is sized once for a range of up to rangeSizedOnce bytes; a
// longer one grows as its chunks resolve, so a range past the written data
// fails at its first missing chunk having held no more than rangeSizedOnce
// beyond what it read. A range whose size overflows, or whose last address
// would wrap past the top of the address space, is refused before any read.
func ReadRange(st interface {
	ChunkSize() int
	Chunking() chunk.Config
}, dst []byte, lba uint64, n int, read func(dst []byte, at uint64) ([]byte, error)) ([]byte, error) {
	if n < 1 || n > (math.MaxInt-len(dst))/st.ChunkSize() {
		return nil, fmt.Errorf("core: read of %d chunks", n)
	}
	size, unit := n*st.ChunkSize(), st.Chunking().Unit()
	if lba > math.MaxUint64-uint64((size-1)/unit) {
		return nil, fmt.Errorf("core: range of %d chunks at LBA %d wraps the address space", n, lba)
	}
	end := len(dst) + size
	dst = slices.Grow(dst, min(size, rangeSizedOnce))
	for i, at := 0, lba; len(dst) < end; i++ {
		next, err := read(dst, at)
		if err != nil {
			return nil, fmt.Errorf("core: range chunk %d: %w", i, err)
		}
		at += uint64((len(next) - len(dst)) / unit)
		dst = next[:min(len(next), end)]
	}
	return dst, nil
}

// --- Baseline read (§2.3, Figure 2b) ---

func (s *Server) baselineRead(dst []byte, lba uint64, tr *ReqTrace) ([]byte, error) {
	from := tr.start()
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
	dst, err = s.decomp.DecompressAppend(dst, cdata, int(raw))
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
	return dst, nil
}

// --- FIDR read (§5.3, Figure 6b) ---

func (s *Server) fidrRead(dst []byte, lba uint64, tr *ReqTrace) ([]byte, error) {
	// §8 extension: hot-block read cache in host memory.
	if out, ok := s.rcache.appendTo(dst, lba); ok {
		n := uint64(len(out) - len(dst))
		s.ctr.readCacheHits.Inc()
		s.ledger.MemPayload(hostmodel.PathNICHost, n)
		s.transfer(pcie.HostMemory, devNIC, n)
		return out, nil
	}
	// Steps 3-4: LBA goes to the host, which resolves the PBA.
	s.transfer(devNIC, pcie.HostMemory, 8)
	from := tr.start()
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
	start := len(dst)
	dst, err = s.decomp.DecompressAppend(dst, cdata, int(raw))
	if err != nil {
		return nil, err
	}
	tr.span(StageDecompress, from)
	// Step 8: the host tells the NIC to fetch the decompressed chunk
	// from the engine (doorbell only; no host-memory data traffic).
	s.transfer(devDecomp, devNIC, raw)
	s.rcache.put(lba, dst[start:])
	return dst, nil
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

// fetchCompressed returns the chunk's compressed bytes, either from engine
// memory (not yet on an SSD) or from the data SSD — after reaping its
// container's write if it is in flight (a failed one's error is left for
// the write path). The result is a view, of that container or of the
// server's compressed-read scratch, which every caller decompresses or
// packs (both copy) at once; it is dead at the next fetchCompressed or
// Pack.
func (s *Server) fetchCompressed(pba lbatable.PBA, tr *ReqTrace) (data []byte, fromSSD bool, err error) {
	from := tr.start()
	if s.sw.inFlight(pba.Container) {
		if err := s.reapSealed(); errors.Is(err, ErrCrashInjected) {
			return nil, false, err
		} else if err != nil {
			s.sw.err = err
		}
	}
	if data, ok := s.comp.ReadPending(pba.Container, pba.Offset, pba.CSize); ok {
		s.ctr.pendingReads.Inc()
		return data, false, nil
	}
	off := pba.ByteOffset(s.cfg.ContainerSize)
	s.cread = slices.Grow(s.cread[:0], int(pba.CSize))
	data = s.cread[:pba.CSize]
	if err := s.dataSSD.ReadInto(data, off); err != nil {
		return nil, false, err
	}
	tr.span(StageSSDIO, from)
	return data, true, nil
}
