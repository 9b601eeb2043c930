// Package core wires the substrates into complete storage servers: the
// extended-CIDR baseline of §2.3 and the FIDR architecture of §5. Both
// are *functional* — client writes are chunked, deduplicated against a
// real Hash-PBN table, compressed, packed into containers on simulated
// SSDs, and read back bit-exact — and *instrumented*: every byte that
// moves charges the host-memory ledger, the PCIe fabric and the CPU cost
// model, producing the measurements behind Figures 4, 5, 11, 12, 14 and
// Tables 1-2.
package core

import (
	"fmt"

	"fidr/internal/blockcomp"
	"fidr/internal/chunk"
	"fidr/internal/engine"
	"fidr/internal/fingerprint"
	"fidr/internal/hashpbn"
	"fidr/internal/hostmodel"
	"fidr/internal/lanes"
	"fidr/internal/lbatable"
	"fidr/internal/metrics"
	"fidr/internal/metrics/events"
	"fidr/internal/nic"
	"fidr/internal/pcie"
	"fidr/internal/predictor"
	"fidr/internal/ssd"
	"fidr/internal/tablecache"
)

// Arch selects the server architecture (the Figure 14 series).
type Arch int

const (
	// Baseline is extended CIDR: host buffering, software predictor,
	// integrated hash+compression FPGA array, software table caching.
	Baseline Arch = iota
	// FIDRNicP2P adds ideas 1+2: in-NIC hashing/buffering and PCIe P2P
	// datapaths, keeping software table-cache management.
	FIDRNicP2P
	// FIDRFull adds idea 3: the Cache HW-Engine manages the table cache
	// (tree indexing + table-SSD queues in hardware).
	FIDRFull
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case Baseline:
		return "baseline"
	case FIDRNicP2P:
		return "fidr-nic-p2p"
	case FIDRFull:
		return "fidr-full"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Config sizes a server.
type Config struct {
	// Arch picks the architecture.
	Arch Arch
	// ChunkSize is the block size clients address in (4096): a range of n
	// chunks is n x ChunkSize bytes, and fixed chunking cuts chunks of
	// exactly this size.
	ChunkSize int
	// Chunking sizes the write-path chunker, and its Unit is the address
	// unit (see Write). The zero value is the paper's fixed chunking at
	// ChunkSize (Validate fills it in): one chunk per write, addressed by
	// chunk index. A content-defined configuration cuts variable-size
	// chunks addressed by stream byte offset (extents). Everything behind
	// the chunker — dedup, compression, WAL, checkpoint, recovery, GC,
	// fsck — is one path: each stored chunk's level-2 record carries its
	// own uncompressed length.
	Chunking chunk.Config
	// BatchChunks is the accelerator batch size in chunks.
	BatchChunks int
	// ContainerSize is the compressed-chunk container size.
	ContainerSize int
	// UniqueChunkCapacity sizes the Hash-PBN table.
	UniqueChunkCapacity uint64
	// CacheLines is the table-cache size in 4-KB buckets (the paper
	// caches 2.8% of the table).
	CacheLines int
	// UpdateWidth is inert: nothing reads it. It stays only because the
	// frozen benchmark/layers.go names it.
	UpdateWidth int
	// HashLanes is the modeled SHA-256 core count: batch hashing (the
	// FIDR NIC's core array, the baseline's FPGA hash array) fans out
	// across this many worker goroutines. 0 selects a GOMAXPROCS-derived
	// default. Results are byte-identical at any lane count.
	HashLanes int
	// CompressLanes only picks who writes sealed containers (0 as for
	// HashLanes): at 1 the writer writes them when it reaps the round, at
	// 2 or more one pool helper does (the round is one item, so every
	// value past 2 acts as 2). Every compress runs on the writer.
	CompressLanes int
	// Compressor is the block compressor; nil selects the LZ engine.
	Compressor blockcomp.Compressor
	// NICBufferBytes is the FIDR NIC's chunk-buffer capacity.
	NICBufferBytes int
	// PredictorCapacity bounds the baseline predictor's sketch table.
	PredictorCapacity int
	// OffloadDataSSDQueues moves the data-SSD read-path NVMe queues
	// into the FPGA, removing the per-read host IO-stack cost. The
	// paper identifies this as the remaining Read-Mixed bottleneck and
	// leaves it as future work (§7.5); enabling it implements that
	// extension. FIDR architectures only.
	OffloadDataSSDQueues bool
	// ReadCacheChunks, when nonzero, keeps that many recently read
	// (decompressed) chunks in host memory to absorb skewed read
	// traffic — the §8 extension for imbalanced data-SSD reads.
	ReadCacheChunks int
	// TableSSD / DataSSD inject existing devices (recovery and tests);
	// nil creates fresh ones. A recovered server must be given the
	// devices of the server that wrote the checkpoint, with the same
	// UniqueChunkCapacity (the table geometry must match).
	TableSSD *ssd.SSD
	DataSSD  *ssd.SSD
	// WAL, when set, write-ahead-logs every table/refcount/LBA mutation
	// so RecoverServer can replay past the last checkpoint (wal.go).
	// WALs are group-local: never share one across servers.
	WAL *WAL
}

// DefaultConfig returns a test-scale configuration (the paper-scale knobs
// are set by the benchmark harness).
func DefaultConfig(arch Arch) Config {
	return Config{
		Arch:                arch,
		ChunkSize:           4096,
		BatchChunks:         64,
		ContainerSize:       1 << 20,
		UniqueChunkCapacity: 1 << 20,
		CacheLines:          4096,
		NICBufferBytes:      16 << 20,
		PredictorCapacity:   1 << 16,
	}
}

// Validate checks and normalizes the configuration.
func (c *Config) Validate() error {
	if c.ChunkSize <= 0 || c.ChunkSize%512 != 0 {
		return fmt.Errorf("core: chunk size %d", c.ChunkSize)
	}
	if c.BatchChunks < 1 {
		return fmt.Errorf("core: batch size %d", c.BatchChunks)
	}
	if c.UniqueChunkCapacity == 0 {
		return fmt.Errorf("core: zero unique-chunk capacity")
	}
	if c.CacheLines < 1 {
		return fmt.Errorf("core: cache lines %d", c.CacheLines)
	}
	c.HashLanes = lanes.Normalize(c.HashLanes)
	c.CompressLanes = lanes.Normalize(c.CompressLanes)
	if c.Compressor == nil {
		c.Compressor = blockcomp.NewLZ()
	}
	if c.PredictorCapacity < 1 {
		c.PredictorCapacity = 1 << 16
	}
	if c.Chunking == (chunk.Config{}) {
		c.Chunking = chunk.Fixed(c.ChunkSize)
	}
	if err := c.Chunking.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Addresses count chunks or bytes, nothing in between.
	if u := c.Chunking.Unit(); u != 1 && u != c.ChunkSize {
		return fmt.Errorf("core: fixed chunks of %d bytes, chunk size is %d", u, c.ChunkSize)
	}
	if c.ContainerSize < c.Chunking.Max {
		return fmt.Errorf("core: container %d smaller than max chunk %d", c.ContainerSize, c.Chunking.Max)
	}
	// An incompressible Max-size chunk must still fit the LBA table's
	// 16-bit size fields after the compressor's worst-case token overhead.
	if c.Chunking.Max+compressSlack > lbatable.MaxCSize {
		return fmt.Errorf("core: max chunk %d + compression slack exceeds storable size %d",
			c.Chunking.Max, lbatable.MaxCSize)
	}
	// The NIC buffer holds a full batch of fixed chunks, and always
	// several Max-size chunks so a stream write makes progress, but never
	// more than a batch of Max-size chunks: each of its two buffers
	// allocates this much at New, and a batch tips at BatchChunks. A tiny
	// batch of small chunks still gets the smallest buffer nic.New takes.
	c.NICBufferBytes = max(min(max(c.NICBufferBytes, c.BatchChunks*c.ChunkSize, 4*c.Chunking.Max),
		c.BatchChunks*max(c.Chunking.Max, c.ChunkSize)), nic.MinBufferBytes)
	return nil
}

// compressSlack bounds the compressor's expansion on incompressible
// input (the LZ engine's token-stream overhead is a few bytes; one
// container offset unit is a comfortable margin).
const compressSlack = lbatable.OffsetUnit

// Device names on the PCIe fabric.
const (
	devNIC     pcie.DeviceID = "nic0"
	devFPGA    pcie.DeviceID = "fpga0" // baseline integrated hash+compress array
	devComp    pcie.DeviceID = "comp0" // FIDR compression engine
	devDecomp  pcie.DeviceID = "decomp0"
	devCacheHW pcie.DeviceID = "cache-engine"
	devDataSSD pcie.DeviceID = "dssd0"
)

// Stats aggregates server-level counters.
type Stats struct {
	ClientWrites     uint64
	ClientReads      uint64
	ClientBytes      uint64
	DuplicateChunks  uint64
	UniqueChunks     uint64
	StoredBytes      uint64 // compressed bytes written to data SSDs
	NICReadHits      uint64 // reads the NIC answered: filling buffer or held batch
	ReadCacheHits    uint64 // host-memory read hits: §8 hot-block cache, baseline request buffer
	PendingReads     uint64 // reads served from the open container
	BatchesProcessed uint64
	Mispredictions   uint64 // baseline: predicted-dup chunks that were unique

	// Reduction-attribution ledger: every processed write chunk lands in
	// exactly one bucket, so after Flush
	//
	//	LogicalWriteBytes = DedupSavedBytes + CompressionSavedBytes + StoredBytes
	//
	// holds exactly; mid-stream the difference is the chunks still in NIC
	// memory ahead of their commit — the filling buffer and the held
	// batch, hashed, whose commit waits for the next tip. Note the ledger is per-process: recovery rebuilds
	// mappings, not history.
	LogicalWriteBytes     uint64 // client write payload (reads excluded)
	DedupSavedBytes       uint64 // chunk-size bytes absorbed by duplicate hits
	CompressionSavedBytes uint64 // raw-minus-compressed bytes on unique chunks
	DeletedFingerprints   uint64 // Hash-PBN entries dropped by GC
	ReclaimedDeadBytes    uint64 // dead compressed bytes in GC-retired containers
}

// Add sums o into s field by field (a cluster's or a node's groups).
func (s *Stats) Add(o Stats) {
	s.ClientWrites += o.ClientWrites
	s.ClientReads += o.ClientReads
	s.ClientBytes += o.ClientBytes
	s.DuplicateChunks += o.DuplicateChunks
	s.UniqueChunks += o.UniqueChunks
	s.StoredBytes += o.StoredBytes
	s.NICReadHits += o.NICReadHits
	s.ReadCacheHits += o.ReadCacheHits
	s.PendingReads += o.PendingReads
	s.BatchesProcessed += o.BatchesProcessed
	s.Mispredictions += o.Mispredictions
	s.LogicalWriteBytes += o.LogicalWriteBytes
	s.DedupSavedBytes += o.DedupSavedBytes
	s.CompressionSavedBytes += o.CompressionSavedBytes
	s.DeletedFingerprints += o.DeletedFingerprints
	s.ReclaimedDeadBytes += o.ReclaimedDeadBytes
}

// ReductionRatio is stored/client bytes (lower is better). An empty
// store reports 0 by convention: "no data" must not render as "no
// reduction achieved" (ratio 1) on dashboards.
func (s Stats) ReductionRatio() float64 {
	if s.ClientBytes == 0 {
		return 0
	}
	return float64(s.StoredBytes) / float64(s.ClientBytes)
}

// counters is the server's only storage of its activity: Stats() reads it
// and EnableObservability attaches the same instances as "core.*" and
// "capacity.*", so both are safe to read while the owner is writing.
type counters struct {
	writes, reads, batches       metrics.Counter
	overlapped                   metrics.Counter // commits that ran under the next batch's hash
	clientBytes, storedBytes     metrics.Counter
	dupChunks, uniqueChunks      metrics.Counter
	nicReadHits, readCacheHits   metrics.Counter
	pendingReads, mispredictions metrics.Counter

	// Reduction-attribution ledger (see Stats).
	logicalBytes, dedupSaved, compSaved metrics.Counter
	deletedFPs, reclaimedDead           metrics.Counter

	// Capacity state, pushed by syncCapacityGauges (a scrape must not touch
	// its engine and table sources). Ratios are derived at scrape time
	// (metrics.CapacityRatios) because Merged sums gauges.
	garbage, live       metrics.Gauge
	fpLive, fpCapacity  metrics.Gauge
	containers, retired metrics.Gauge
	openBytes           metrics.Gauge
}

// attach publishes the counters through reg; stored bytes has two names.
func (c *counters) attach(reg *metrics.Registry) {
	reg.AttachCounter("core.writes", &c.writes)
	reg.AttachCounter("core.reads", &c.reads)
	reg.AttachCounter("core.batches", &c.batches)
	reg.AttachCounter("core.batches_overlapped", &c.overlapped)
	reg.AttachCounter("core.client_bytes", &c.clientBytes)
	reg.AttachCounter("core.stored_bytes", &c.storedBytes)
	reg.AttachCounter("core.dup_chunks", &c.dupChunks)
	reg.AttachCounter("core.unique_chunks", &c.uniqueChunks)
	reg.AttachCounter("core.nic_read_hits", &c.nicReadHits)
	reg.AttachCounter("core.read_cache_hits", &c.readCacheHits)
	reg.AttachCounter("core.pending_reads", &c.pendingReads)
	reg.AttachCounter("core.mispredictions", &c.mispredictions)
	reg.AttachCounter("capacity.logical_bytes", &c.logicalBytes)
	reg.AttachCounter("capacity.dedup_saved_bytes", &c.dedupSaved)
	reg.AttachCounter("capacity.compression_saved_bytes", &c.compSaved)
	reg.AttachCounter("capacity.stored_bytes", &c.storedBytes)
	reg.AttachCounter("capacity.deleted_fingerprints", &c.deletedFPs)
	reg.AttachCounter("capacity.reclaimed_dead_bytes", &c.reclaimedDead)
	reg.AttachGauge("capacity.garbage_bytes", &c.garbage)
	reg.AttachGauge("capacity.live_bytes", &c.live)
	reg.AttachGauge("capacity.fp_live", &c.fpLive)
	reg.AttachGauge("capacity.fp_capacity", &c.fpCapacity)
	reg.AttachGauge("capacity.containers", &c.containers)
	reg.AttachGauge("capacity.containers_retired", &c.retired)
	reg.AttachGauge("capacity.open_container_bytes", &c.openBytes)
}

// Server is one storage server instance. Not safe for concurrent use
// (wrap with external serialization for network frontends), except for
// the Stats read-outs.
type Server struct {
	cfg    Config
	geom   hashpbn.Geometry
	ledger *hostmodel.Ledger
	topo   *pcie.Topology

	// wbuf is the write buffer, nic.FIDR's double buffer: FIDR's NIC
	// memory, or the baseline's host request buffer. pnic counts the
	// baseline NIC's DMA writes; FIDR's wbuf counts its own.
	wbuf *nic.FIDR
	pnic *nic.Plain
	pred *predictor.Predictor
	// pool runs the server's jobs that fan out: wbuf's hash jobs (the
	// NIC's SHA cores, or the baseline's FPGA hash array) and the data
	// SSD's container-write round (sw).
	pool *lanes.Pool
	sw   sealedWrites

	comp   *engine.Compression
	decomp *engine.Decompression

	cache *tablecache.Cache
	lba   *lbatable.Table

	dataSSD  *ssd.SSD
	tableSSD *ssd.SSD

	// held is the batch under commit (see heldBatch), cread where
	// fetchCompressed lands a chunk's compressed bytes; both are reused
	// call after call.
	held   heldBatch
	cread  []byte
	rcache *readCache
	ctr    counters
	tl     tally // the open batch's share of ctr, see commitTally
	// wal is the group-local write-ahead log (nil disables logging).
	wal *WAL
	// crash is the injection state for the crash-recovery harness.
	crash crashState
	// recovery reports what the last RecoverServer pass did.
	recovery RecoveryReport
	// obs is the request-tracing and stage-timing hookup; nil (disabled)
	// unless EnableObservability was called. All hooks are nil-safe.
	obs *Observer
	// activeReq is the request trace currently on the stack (the server
	// is single-writer), so batch flushes triggered mid-request can link
	// their spans under the tipping request's trace.
	activeReq *ReqTrace

	// chunker cuts every write into chunks (see Write); cbounds is its
	// reusable boundary scratch.
	chunker *chunk.CDC
	cbounds []int

	// pbnFP records each PBN's fingerprint for garbage collection
	// (real systems keep it in container metadata).
	pbnFP []fingerprint.FP
	// reclaimed lists containers retired by Compact.
	reclaimed []uint64
	// fpLive counts live Hash-PBN table entries. The table cache has no
	// occupancy counter of its own (Range charges SSD reads), so the
	// server tracks inserts/deletes at their call sites.
	fpLive uint64
	// journal receives structured capacity events (GC, checkpoint,
	// recovery); nil disables emission. group labels this server's
	// events in a shared cluster journal. recovered marks a server built
	// by RecoverServer so SetEventJournal can emit the recovery event
	// retroactively (the journal attaches after construction).
	journal   *events.Journal
	group     int
	recovered bool

	// snapshots holds point-in-time mapping copies (snapshot.go).
	snapshots  map[SnapshotID]*snapshotState
	nextSnapID uint64
}

// New builds a server.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ledger := hostmodel.NewLedger()

	topo := pcie.NewTopology()
	if err := topo.AddSwitch("sw0"); err != nil {
		return nil, err
	}
	for _, d := range []pcie.DeviceID{devNIC, devComp, devDecomp, devDataSSD, devFPGA} {
		if err := topo.AddDevice(d, "sw0"); err != nil {
			return nil, err
		}
	}
	if err := topo.AddDevice(devCacheHW, ""); err != nil {
		return nil, err
	}

	geom, err := hashpbn.GeometryFor(cfg.UniqueChunkCapacity, 0.5)
	if err != nil {
		return nil, err
	}
	tableSSD := cfg.TableSSD
	if tableSSD == nil {
		tssdCfg := ssd.Samsung970Pro("table-ssd")
		// Room for the table plus the metadata checkpoint region.
		if need := geom.TableBytes()*3 + (1 << 30); need > tssdCfg.CapacityBytes {
			tssdCfg.CapacityBytes = need
		}
		tableSSD, err = ssd.New(tssdCfg)
		if err != nil {
			return nil, err
		}
	}
	dataSSD := cfg.DataSSD
	if dataSSD == nil {
		dataSSD, err = ssd.New(ssd.Samsung970Pro("data-ssd"))
		if err != nil {
			return nil, err
		}
	}

	mode := tablecache.Software
	if cfg.Arch == FIDRFull {
		mode = tablecache.HW
	}
	cache, err := tablecache.New(tablecache.Config{
		Geometry:   geom,
		CacheLines: cfg.CacheLines,
		Mode:       mode,
		TableSSD:   tableSSD,
		Ledger:     ledger,
	})
	if err != nil {
		return nil, err
	}

	lba, err := lbatable.New(cfg.ContainerSize)
	if err != nil {
		return nil, err
	}
	comp, err := engine.NewCompression(cfg.Compressor, cfg.ContainerSize)
	if err != nil {
		return nil, err
	}
	comp.SetCompressLanes(cfg.CompressLanes)
	pool := lanes.NewPool()

	s := &Server{
		cfg:      cfg,
		geom:     geom,
		ledger:   ledger,
		topo:     topo,
		comp:     comp,
		decomp:   engine.NewDecompression(cfg.Compressor),
		cache:    cache,
		lba:      lba,
		dataSSD:  dataSSD,
		tableSSD: tableSSD,
		wal:      cfg.WAL,
		pool:     pool,
	}
	s.sw.job = lanes.NewJob(lanes.Waited, s.writePosted)
	if s.chunker, err = cfg.Chunking.NewChunker(); err != nil {
		return nil, err
	}
	bufBytes := cfg.NICBufferBytes
	if cfg.Arch == Baseline {
		s.pnic = nic.NewPlain()
		s.pred = predictor.New(cfg.PredictorCapacity, ledger)
		// The host request buffer holds a batch of Max-size chunks, so a
		// batch tips at BatchChunks, never early on ErrBufferFull.
		bufBytes = max(cfg.BatchChunks*max(cfg.Chunking.Max, cfg.ChunkSize), nic.MinBufferBytes)
	}
	s.wbuf, err = nic.New(nic.Config{BufferBytes: bufBytes, HashLanes: cfg.HashLanes, BatchChunks: cfg.BatchChunks})
	if err != nil {
		return nil, err
	}
	s.wbuf.SetPool(pool)
	s.rcache = newReadCache(cfg.ReadCacheChunks)
	s.ctr.fpCapacity.Set(float64(cfg.UniqueChunkCapacity))
	return s, nil
}

// ReadCacheHitRate reports the hot-block read cache's hit rate (0 when
// the cache is disabled).
func (s *Server) ReadCacheHitRate() float64 { return s.rcache.hitRate() }

// Arch returns the server's architecture.
func (s *Server) Arch() Arch { return s.cfg.Arch }

// Config returns the server's configuration.
func (s *Server) Config() Config { return s.cfg }

// ChunkSize returns the block size clients address in, in bytes (fixed
// chunking cuts chunks of this size; under CDC chunk sizes vary).
func (s *Server) ChunkSize() int { return s.cfg.ChunkSize }

// Chunking returns the server's chunking configuration.
func (s *Server) Chunking() chunk.Config { return s.cfg.Chunking }

// Ledger exposes the host resource ledger.
func (s *Server) Ledger() *hostmodel.Ledger { return s.ledger }

// Topology exposes the PCIe fabric ledger.
func (s *Server) Topology() *pcie.Topology { return s.topo }

// Stats returns server-level counters. It is a lock-free read-out of what
// has been committed and commits nothing: a batch the NIC holds shows up
// once its commit has run.
func (s *Server) Stats() Stats {
	c := &s.ctr
	return Stats{
		ClientWrites:          c.writes.Value(),
		ClientReads:           c.reads.Value(),
		ClientBytes:           c.clientBytes.Value(),
		DuplicateChunks:       c.dupChunks.Value(),
		UniqueChunks:          c.uniqueChunks.Value(),
		StoredBytes:           c.storedBytes.Value(),
		NICReadHits:           c.nicReadHits.Value(),
		ReadCacheHits:         c.readCacheHits.Value(),
		PendingReads:          c.pendingReads.Value(),
		BatchesProcessed:      c.batches.Value(),
		Mispredictions:        c.mispredictions.Value(),
		LogicalWriteBytes:     c.logicalBytes.Value(),
		DedupSavedBytes:       c.dedupSaved.Value(),
		CompressionSavedBytes: c.compSaved.Value(),
		DeletedFingerprints:   c.deletedFPs.Value(),
		ReclaimedDeadBytes:    c.reclaimedDead.Value(),
	}
}

// CacheStats returns table-cache statistics.
func (s *Server) CacheStats() tablecache.Stats { return s.cache.Stats() }

// EngineStats returns compression engine statistics.
func (s *Server) EngineStats() engine.Stats { return s.comp.Stats() }

// PredictorStats returns baseline predictor statistics (zero for FIDR).
func (s *Server) PredictorStats() predictor.Stats {
	if s.pred == nil {
		return predictor.Stats{}
	}
	return s.pred.Stats()
}

// NICStats returns NIC statistics: FIDR's every counter; the baseline
// NIC's writes and bytes DMA'd to host memory, the rest zero.
func (s *Server) NICStats() nic.Stats {
	if s.pnic != nil {
		return s.pnic.Stats()
	}
	return s.wbuf.Stats()
}

// DataSSDStats and TableSSDStats expose device counters.
func (s *Server) DataSSDStats() ssd.Stats  { return s.dataSSD.Stats() }
func (s *Server) TableSSDStats() ssd.Stats { return s.tableSSD.Stats() }

// WALStats returns write-ahead-log counters (zero without a WAL).
func (s *Server) WALStats() WALStats {
	if s.wal == nil {
		return WALStats{}
	}
	return s.wal.Stats()
}

// transfer moves bytes on the PCIe fabric, panicking on topology bugs
// (all devices are registered at construction).
func (s *Server) transfer(from, to pcie.DeviceID, n uint64) {
	if n == 0 {
		return
	}
	if _, err := s.topo.Transfer(from, to, n); err != nil {
		panic(fmt.Sprintf("core: pcie transfer %s->%s: %v", from, to, err))
	}
}
