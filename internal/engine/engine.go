// Package engine models the FIDR Compression and Decompression Engines:
// dedicated FPGA accelerators that compress batches of unique chunks into
// 4-MiB containers (write path) and decompress chunk batches (read path).
//
// Two architectural differences from the baseline's integrated FPGA array
// matter here (§6.1):
//
//  1. no hashing cores — hashing moved to the NIC, and
//  2. compressed data stays in engine memory for direct P2P transfer to
//     the data SSDs; only per-chunk metadata (compressed sizes, LBAs)
//     goes to the host.
//
// The engine is functional: it runs a real compressor and packs real
// containers. Incompressible chunks are stored raw (CSize == chunk size
// signals "raw" to the read path). The LZ77 pipeline array is a job on the
// server's lanes.Pool, which helpers serve before any queued hash.
package engine

import (
	"fmt"
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/fingerprint"
	"fidr/internal/lanes"
	"fidr/internal/lbatable"
	"fidr/internal/metrics"
)

// ChunkMeta is the per-chunk metadata an engine reports to the host after
// compression (§5.3 step 8): whose chunk it is, and the level-2 record
// (placement, compressed size, uncompressed length) the host stores as is.
type ChunkMeta struct {
	LBA uint64
	FP  fingerprint.FP
	lbatable.PBA
}

// IsRaw reports whether the chunk was stored uncompressed.
func (m ChunkMeta) IsRaw() bool { return m.CSize == m.RawSize }

// SealedContainer is a full container ready for one sequential SSD write.
type SealedContainer struct {
	Index uint64
	Data  []byte
}

// Stats counts engine activity.
type Stats struct {
	ChunksIn         uint64
	BytesIn          uint64
	BytesCompressed  uint64
	RawStored        uint64
	ContainersSealed uint64
}

// CompressionRatio returns compressed-out/bytes-in.
func (s Stats) CompressionRatio() float64 {
	if s.BytesIn == 0 {
		return 1
	}
	return float64(s.BytesCompressed) / float64(s.BytesIn)
}

// Compression is one Compression Engine.
type Compression struct {
	comp    blockcomp.Compressor
	builder *lbatable.Builder
	// sealed containers wait in engine memory for P2P pickup.
	sealed []SealedContainer

	// compressLanes is the modeled LZ77-pipeline count (1 = serial). job
	// is the pipelines' job on pool, bound once to compressOne; datas is
	// the batch it works on.
	compressLanes int
	pool          *lanes.Pool
	job           *lanes.Job
	datas         [][]byte
	// scratch, results and errs are the batch's recycled per-slot output
	// buffers and outcomes: slot i is touched only by whoever claimed
	// item i, and they stay valid until the next CompressMany call.
	scratch [][]byte
	results []Compressed
	errs    []error

	// Activity counters: read by Stats and, once attached, by "engine.*".
	chunksIn, bytesIn, bytesCompressed metrics.Counter
	rawStored, nSealed                 metrics.Counter
	// busyNS accumulates compression-section wall time (duty-cycle
	// source); laneBusyNS sums every chunk's compression time, whoever
	// ran it; queueDepth tracks sealed containers awaiting P2P pickup by
	// the data SSD.
	busyNS, laneBusyNS metrics.Counter
	lanesG, queueDepth metrics.Gauge
}

// Instrument publishes the engine's counters through reg as "engine.*".
func (e *Compression) Instrument(reg *metrics.Registry) {
	reg.AttachCounter("engine.chunks_in", &e.chunksIn)
	reg.AttachCounter("engine.bytes_in", &e.bytesIn)
	reg.AttachCounter("engine.bytes_compressed", &e.bytesCompressed)
	reg.AttachCounter("engine.raw_stored", &e.rawStored)
	reg.AttachCounter("engine.containers_sealed", &e.nSealed)
	reg.AttachCounter("engine.busy_ns", &e.busyNS)
	reg.AttachCounter("engine.compress_lane_busy_ns", &e.laneBusyNS)
	reg.AttachGauge("engine.compress_lanes", &e.lanesG)
	reg.AttachGauge("engine.queue_depth", &e.queueDepth)
}

// SetCompressLanes sets the modeled compression-pipeline count; <= 0
// selects the GOMAXPROCS-derived default. Results are byte-identical.
func (e *Compression) SetCompressLanes(count int) {
	e.compressLanes = lanes.Normalize(count)
	e.lanesG.Set(float64(e.compressLanes))
}

// SetPool moves the pipelines onto p, their server's pool, between batches.
func (e *Compression) SetPool(p *lanes.Pool) { e.pool = p }

// CompressLanes returns the configured compression-lane count.
func (e *Compression) CompressLanes() int { return e.compressLanes }

// NewCompression creates an engine producing containers of containerSize
// bytes using comp.
func NewCompression(comp blockcomp.Compressor, containerSize int) (*Compression, error) {
	return NewCompressionAt(comp, containerSize, 0)
}

// NewCompressionAt creates an engine whose first container has the given
// index — used when recovering a server whose earlier containers are
// already on the data SSDs.
func NewCompressionAt(comp blockcomp.Compressor, containerSize int, firstContainer uint64) (*Compression, error) {
	b, err := lbatable.NewBuilder(containerSize, firstContainer)
	if err != nil {
		return nil, err
	}
	e := &Compression{comp: comp, builder: b, pool: lanes.NewPool()}
	e.job = lanes.NewJob(lanes.Waited, e.compressOne)
	e.SetCompressLanes(1)
	return e, nil
}

// Compress runs the compression cores over one chunk without packing it.
// Incompressible chunks fall back to their raw bytes. The baseline needs
// this split: it compresses *predicted*-unique chunks speculatively but
// packs only chunks that dedup validates as unique. The returned slice
// is caller-owned (batched callers should prefer CompressMany, which
// recycles output buffers).
func (e *Compression) Compress(data []byte) (cdata []byte, raw bool, err error) {
	if len(data) == 0 {
		return nil, false, fmt.Errorf("engine: empty chunk")
	}
	start := time.Now()
	cdata, err = e.comp.Compress(data)
	elapsed := uint64(time.Since(start))
	e.busyNS.Add(elapsed)
	e.laneBusyNS.Add(elapsed)
	if err != nil {
		return nil, false, fmt.Errorf("engine: compress: %w", err)
	}
	e.chunksIn.Inc()
	e.bytesIn.Add(uint64(len(data)))
	if len(cdata) >= len(data) {
		e.rawStored.Inc()
		e.bytesCompressed.Add(uint64(len(data)))
		return data, true, nil
	}
	e.bytesCompressed.Add(uint64(len(cdata)))
	return cdata, false, nil
}

// Compressed is one CompressMany result. Raw marks an incompressible
// chunk stored as its original bytes; Data then aliases the caller's
// input. Otherwise Data aliases engine-owned scratch that stays valid
// only until the next CompressMany call — Pack (which copies into the
// container) must run before then.
type Compressed struct {
	Data []byte
	Raw  bool
}

// CompressMany runs the compression-pipeline array over a batch of
// chunks: the caller and the pool's helpers claim chunks in batch order,
// each compressed into its slot's recycled output buffer, and stats are
// committed strictly in batch order after the join. Output bytes, stats
// and error selection (lowest failing index) are byte-identical to
// compressing the batch serially. The returned slice, like the Data it
// points at, is valid until the next CompressMany call.
func (e *Compression) CompressMany(datas [][]byte) ([]Compressed, error) {
	if len(datas) == 0 {
		return nil, nil
	}
	for len(e.scratch) < len(datas) {
		e.scratch = append(e.scratch, nil)
		e.results = append(e.results, Compressed{})
		e.errs = append(e.errs, nil)
	}
	results, errs := e.results[:len(datas)], e.errs[:len(datas)]
	clear(errs)
	start := time.Now()
	e.datas = datas
	busy := e.pool.Run(e.job, len(datas), e.compressLanes)
	e.datas = nil
	e.busyNS.Add(uint64(time.Since(start)))
	e.laneBusyNS.Add(uint64(busy))
	// Counters commit once per batch, after the join; the lowest failing
	// index wins and the chunks before it still count, as on the serial path.
	var bytesIn, bytesOut, rawStored uint64
	n := 0
	for ; n < len(datas) && errs[n] == nil; n++ {
		bytesIn += uint64(len(datas[n]))
		bytesOut += uint64(len(results[n].Data))
		if results[n].Raw {
			rawStored++
		}
	}
	e.chunksIn.Add(uint64(n))
	e.bytesIn.Add(bytesIn)
	e.bytesCompressed.Add(bytesOut)
	e.rawStored.Add(rawStored)
	if n < len(datas) {
		return nil, errs[n]
	}
	return results, nil
}

// compressOne is the pipelines' item function: it compresses chunk i of
// the batch CompressMany is running into slot i's scratch, touching that
// slot's scratch, result and error and nothing else.
func (e *Compression) compressOne(i int) {
	src := e.datas[i]
	if len(src) == 0 {
		e.errs[i] = fmt.Errorf("engine: chunk %d: empty chunk", i)
		return
	}
	cdata, err := blockcomp.CompressAppend(e.comp, e.scratch[i][:0], src)
	if err != nil {
		e.errs[i] = fmt.Errorf("engine: chunk %d: compress: %w", i, err)
		return
	}
	e.scratch[i] = cdata
	if len(cdata) >= len(src) {
		e.results[i] = Compressed{Data: src, Raw: true}
	} else {
		e.results[i] = Compressed{Data: cdata}
	}
}

// Pack places an already-compressed chunk into the open container,
// sealing full containers as needed, and returns its metadata.
func (e *Compression) Pack(lba uint64, fp fingerprint.FP, cdata []byte, rawSize int) (ChunkMeta, error) {
	if !e.builder.Fits(len(cdata)) {
		e.seal()
	}
	container, off, err := e.builder.Append(cdata)
	if err != nil {
		return ChunkMeta{}, fmt.Errorf("engine: pack LBA %d: %w", lba, err)
	}
	return ChunkMeta{
		LBA: lba,
		FP:  fp,
		PBA: lbatable.PBA{Container: container, Offset: off, CSize: uint32(len(cdata)), RawSize: uint32(rawSize)},
	}, nil
}

// ReadPending serves a chunk that still sits in engine memory: in the open
// container, or in a sealed one not yet written to an SSD. Returns false
// for any other container. The result is a view of that container for
// handing to Decompress at once, not a copy: it is valid only until the
// next Pack, Flush or PopSealed.
func (e *Compression) ReadPending(container uint64, off uint32, n uint32) ([]byte, bool) {
	if container == e.builder.Container() {
		return e.builder.Peek(int(off), int(n))
	}
	for i := range e.sealed {
		if sc := &e.sealed[i]; sc.Index == container {
			if end := uint64(off) + uint64(n); end <= uint64(len(sc.Data)) {
				return sc.Data[off:end], true
			}
			return nil, false
		}
	}
	return nil, false
}

// seal closes the open container into the sealed queue.
func (e *Compression) seal() {
	if idx, data, ok := e.builder.Seal(); ok {
		e.sealed = append(e.sealed, SealedContainer{Index: idx, Data: data})
		e.nSealed.Inc()
		e.queueDepth.Set(float64(len(e.sealed)))
	}
}

// Flush seals the open container even if below threshold (shutdown or
// end-of-workload path).
func (e *Compression) Flush() { e.seal() }

// NextSealed returns the oldest sealed container without removing it (the
// data SSDs fetch it straight from engine memory over PCIe P2P). It stays
// queued, and readable through ReadPending, until PopSealed says the write
// succeeded — a failed write is simply retried by the next caller.
func (e *Compression) NextSealed() (SealedContainer, bool) {
	if len(e.sealed) == 0 {
		return SealedContainer{}, false
	}
	return e.sealed[0], true
}

// PopSealed drops the container NextSealed returned, now that it is on the
// SSD, and recycles its buffer.
func (e *Compression) PopSealed() {
	e.builder.Recycle(e.sealed[0].Data)
	last := len(e.sealed) - 1
	copy(e.sealed, e.sealed[1:])
	e.sealed[last] = SealedContainer{}
	e.sealed = e.sealed[:last]
	e.queueDepth.Set(float64(last))
}

// TakeSealed removes and returns all sealed containers at once, for a
// caller whose writes cannot fail part-way. The caller owns the slice and
// the buffers; nothing comes back to the builder, so a caller that writes
// in a loop should prefer NextSealed / PopSealed, which recycle.
func (e *Compression) TakeSealed() []SealedContainer {
	if len(e.sealed) == 0 {
		return nil
	}
	out := e.sealed
	e.sealed = nil
	e.queueDepth.Set(0)
	return out
}

// DurableContainers returns the index of the first container that is not
// on an SSD yet — the oldest sealed one still queued, else the open one.
// Every container below it is durable, which is the WAL's commit barrier.
func (e *Compression) DurableContainers() uint64 {
	if len(e.sealed) > 0 {
		return e.sealed[0].Index
	}
	return e.builder.Container()
}

// OpenContainer returns the index of the container currently being packed.
func (e *Compression) OpenContainer() uint64 { return e.builder.Container() }

// OpenBytes returns the compressed bytes buffered in the open container
// (packed but not yet sealed to the data SSDs).
func (e *Compression) OpenBytes() int { return e.builder.Used() }

// Stats returns a snapshot.
func (e *Compression) Stats() Stats {
	return Stats{
		ChunksIn:         e.chunksIn.Value(),
		BytesIn:          e.bytesIn.Value(),
		BytesCompressed:  e.bytesCompressed.Value(),
		RawStored:        e.rawStored.Value(),
		ContainersSealed: e.nSealed.Value(),
	}
}

// Decompression is one Decompression Engine.
type Decompression struct {
	comp blockcomp.Compressor
}

// NewDecompression creates a decompression engine using comp.
func NewDecompression(comp blockcomp.Compressor) *Decompression {
	return &Decompression{comp: comp}
}

// Decompress restores one chunk. Raw-stored chunks (csize == rawSize)
// pass through.
func (d *Decompression) Decompress(cdata []byte, rawSize int) ([]byte, error) {
	if len(cdata) == rawSize {
		out := make([]byte, rawSize)
		copy(out, cdata)
		return out, nil
	}
	out, err := d.comp.Decompress(cdata, rawSize)
	if err != nil {
		return nil, fmt.Errorf("engine: decompress: %w", err)
	}
	return out, nil
}
