package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/chunk"
	"fidr/internal/engine"
	"fidr/internal/fingerprint"
	"fidr/internal/hashpbn"
	"fidr/internal/hostmodel"
	"fidr/internal/lbatable"
	"fidr/internal/nic"
	"fidr/internal/proto"
	"fidr/internal/ssd"
	"fidr/internal/tablecache"
)

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics turns one traced pass into per-layer numbers: span self
// times, decorator busy times and the layers' public counters. Metrics
// that do not apply to the workload are left out.
func layerMetrics(st *stream, tg *target, res *passResult) map[string]float64 {
	lt, s, ops := res.layers, res.stats, float64(len(st.reqs))
	cache, dataSSD, eng := tg.srv.CacheStats(), tg.srv.DataSSDStats(), tg.srv.EngineStats()
	m := map[string]float64{
		"core.write_ns_per_op": mean(lt.coreWrite),
		"core.write_p999_us":   percentile(lt.coreWrite, 0.999) / 1e3,
		"core.flush_ms":        float64(tg.tr.flushNS) / 1e6,
		"core.self_ns_per_op":  lt.coreSelf,

		"blockcomp.compress_chunks":       float64(lt.compressN),
		"blockcomp.compress_ns_per_chunk": float64(lt.compressNS) / float64(max(lt.compressN, 1)),
		"blockcomp.ratio":                 eng.CompressionRatio(),

		"core.dedup_ratio":                     ratio(s.DuplicateChunks, s.DuplicateChunks+s.UniqueChunks),
		"tablecache.hit_ratio":                 cache.HitRate(),
		"tablecache.evictions_per_kop":         float64(cache.Evictions) / ops * 1e3,
		"ssd.data_write_bytes_per_client_byte": ratio(dataSSD.WriteBytes, s.LogicalWriteBytes),
		"engine.containers_sealed":             float64(eng.ContainersSealed),
	}
	ts := tg.srv.TableSSDStats()
	m["ssd.table_io_per_kop"] = float64(ts.ReadIOs+ts.WriteIOs) / ops * 1e3
	snap := tg.srv.Ledger().Snapshot()
	m["model.host_dram_bytes_per_client_byte"] = snap.MemPerClientByte()
	m["model.host_cpu_ns_per_client_byte"] = snap.CPUNanosPerClientByte()
	if st.reads > 0 {
		// checkPass's read-back ran after res.stats was taken, but the
		// device counters include it (one SSD read per sampled LBA).
		extra := uint64(len(st.sample))
		m["core.read_ns_per_op"] = mean(lt.coreRead)
		m["blockcomp.decompress_chunks"] = float64(lt.decompressN)
		m["blockcomp.decompress_ns_per_chunk"] = float64(lt.decompressNS) / float64(max(lt.decompressN, 1))
		m["ssd.data_reads_per_read_op"] = ratio(dataSSD.ReadIOs-min(extra, dataSSD.ReadIOs), s.ClientReads)
		m["nic.read_hit_ratio"] = ratio(s.NICReadHits, s.ClientReads)
		m["engine.pending_read_ratio"] = ratio(s.PendingReads, s.ClientReads)
	}
	if st.spec.Wire {
		m["proto.rtt_p50_us"] = percentile(lt.rtt, 0.5) / 1e3
		m["proto.rtt_p999_us"] = percentile(lt.rtt, 0.999) / 1e3
		m["proto.self_ns_per_op"] = lt.protoSelf
		m["async.self_ns_per_op"] = lt.asyncSelf
	}
	if w := tg.wal; w != nil {
		syncs := append([]int64(nil), w.syncNS...)
		slices.Sort(syncs)
		m["wal.sync_count"] = float64(len(syncs))
		m["wal.sync_p50_us"] = percentile(syncs, 0.5) / 1e3
		m["wal.sync_p99_us"] = percentile(syncs, 0.99) / 1e3
		m["wal.bytes_per_client_byte"] = ratio(uint64(w.bytes), s.LogicalWriteBytes)
		m["wal.device_busy_share"] = float64(w.busyNS) / float64(res.wall)
	}
	return m
}

// stopwatch accumulates the time of one replayed layer function.
type stopwatch struct {
	ns  int64
	ops int
}

func (s *stopwatch) perOp() float64 { return float64(s.ns) / float64(max(s.ops, 1)) }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replayLayers times each layer's public function alone, in this process
// and on inputs taken from the materialised workload, mirroring the order
// the server calls them in: per 64-chunk batch buffer, fingerprint, look
// up, then compress, pack, insert and map the unique share and write
// sealed containers; afterwards resolve, read and decompress the reads.
// From these costs it computes the workload's roofline.
func replayLayers(st *stream) (map[string]float64, error) {
	cfg := st.cfg
	if err := cfg.Validate(); err != nil { // resolves lane defaults
		return nil, err
	}
	var buffer, hash, lookup, insert, compress, pack, ssdWrite, lbaMap, resolve, ssdRead, decompress stopwatch
	var lookupAllocs uint64
	clock := time.Now()
	lap := func(sw *stopwatch, ops int) { // charges the time since the last lap
		now := time.Now()
		sw.ns += int64(now.Sub(clock))
		sw.ops += ops
		clock = now
	}

	fnic, err := nic.New(nic.Config{BufferBytes: cfg.NICBufferBytes, HashLanes: 1})
	if err != nil {
		return nil, err
	}
	geom, err := hashpbn.GeometryFor(cfg.UniqueChunkCapacity, 0.5)
	if err != nil {
		return nil, err
	}
	tcfg := ssd.Samsung970Pro("replay-table-ssd")
	tcfg.CapacityBytes = max(tcfg.CapacityBytes, geom.TableBytes())
	tableSSD, err := ssd.New(tcfg)
	if err != nil {
		return nil, err
	}
	cache, err := tablecache.New(tablecache.Config{Geometry: geom, CacheLines: cfg.CacheLines,
		Mode: tablecache.HW, UpdateWidth: cfg.UpdateWidth, TableSSD: tableSSD,
		Ledger: hostmodel.NewLedger(), Costs: hostmodel.DefaultCosts()})
	if err != nil {
		return nil, err
	}
	comp, err := engine.NewCompression(blockcomp.NewLZ(), cfg.ContainerSize)
	if err != nil {
		return nil, err
	}
	comp.SetCompressLanes(1)
	decomp := engine.NewDecompression(blockcomp.NewLZ())
	table, err := lbatable.New(cfg.ContainerSize)
	if err != nil {
		return nil, err
	}
	dataSSD, err := ssd.New(ssd.Samsung970Pro("replay-data-ssd"))
	if err != nil {
		return nil, err
	}
	writeSealed := func() error {
		for _, sc := range comp.TakeSealed() {
			clock = time.Now()
			err := dataSSD.Write(sc.Index*uint64(len(sc.Data)), sc.Data)
			lap(&ssdWrite, 1)
			if err != nil {
				return err
			}
		}
		return nil
	}

	var batch []request
	fps := make([]fingerprint.FP, 0, cfg.BatchChunks)
	pbns := make([]uint64, cfg.BatchChunks)
	found := make([]bool, cfg.BatchChunks)
	unique := make([]int, 0, cfg.BatchChunks) // batch positions of first-claim unique chunks
	drain := make([]bool, cfg.BatchChunks)    // all false: the NIC drops every buffered chunk
	processBatch := func() error {
		n := len(batch)
		if n == 0 {
			return nil
		}
		clock = time.Now()
		for _, r := range batch {
			if err := fnic.BufferWrite(r.lba, st.payload(r.payload)); err != nil {
				return err
			}
		}
		lap(&buffer, n)
		if _, err := fnic.ScheduleBatch(drain[:n]); err != nil {
			return err
		}
		fps = fps[:0]
		clock = time.Now()
		for _, r := range batch {
			fps = append(fps, fingerprint.Of(st.payload(r.payload)))
		}
		lap(&hash, n)
		pbns, found = pbns[:n], found[:n]
		m0 := mallocs()
		clock = time.Now()
		for i, fp := range fps {
			var err error
			if pbns[i], found[i], err = cache.Lookup(fp); err != nil {
				return err
			}
		}
		lap(&lookup, n)
		lookupAllocs += mallocs() - m0
		unique = unique[:0]
		claimed := make(map[fingerprint.FP]int, n)
		for i, fp := range fps {
			if _, dup := claimed[fp]; !found[i] && !dup {
				claimed[fp] = i
				unique = append(unique, i)
			}
		}
		if len(unique) > 0 {
			datas := make([][]byte, len(unique))
			for j, i := range unique {
				datas[j] = st.payload(batch[i].payload)
			}
			clock = time.Now()
			rs, err := comp.CompressMany(datas)
			lap(&compress, len(unique))
			if err != nil {
				return err
			}
			metas := make([]engine.ChunkMeta, len(unique))
			clock = time.Now()
			for j, i := range unique {
				if metas[j], err = comp.Pack(batch[i].lba, fps[i], rs[j].Data, st.chunk); err != nil {
					return err
				}
			}
			lap(&pack, len(unique))
			for j, i := range unique {
				if pbns[i], err = table.AppendChunk(metas[j].LBA, metas[j].Container, metas[j].Offset, metas[j].CSize); err != nil {
					return err
				}
			}
			lap(&lbaMap, len(unique))
			for j, i := range unique {
				if err := cache.Insert(metas[j].FP, pbns[i]); err != nil {
					return err
				}
			}
			lap(&insert, len(unique))
		}
		// Within-batch duplicates take their twin's PBN, as the server does.
		for i, fp := range fps {
			if j, ok := claimed[fp]; ok && !found[i] {
				pbns[i] = pbns[j]
			}
		}
		clock = time.Now()
		for i, r := range batch {
			if err := table.MapLBA(r.lba, pbns[i]); err != nil {
				return err
			}
		}
		lap(&lbaMap, n)
		batch = batch[:0]
		return writeSealed()
	}
	var reads []uint64
	for _, r := range st.reqs {
		if !r.write {
			reads = append(reads, r.lba)
			continue
		}
		batch = append(batch, r)
		if len(batch) == cfg.BatchChunks {
			if err := processBatch(); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
	}
	if err := processBatch(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	comp.Flush()
	if err := writeSealed(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	// Read side. A write-only workload has no reads of its own; the
	// layer costs are still reported, over the read-back sample.
	if len(reads) == 0 {
		reads = st.sample
	}
	pbas := make([]lbatable.PBA, cfg.BatchChunks)
	cdatas := make([][]byte, cfg.BatchChunks)
	for len(reads) > 0 {
		group := reads[:min(len(reads), cfg.BatchChunks)]
		reads = reads[len(group):]
		clock = time.Now()
		for i, lba := range group {
			if pbas[i], err = table.ResolveLBA(lba); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
		lap(&resolve, len(group))
		for i := range group {
			if cdatas[i], err = dataSSD.Read(pbas[i].ByteOffset(cfg.ContainerSize), int(pbas[i].CSize)); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
		lap(&ssdRead, len(group))
		for i, lba := range group {
			data, err := decomp.Decompress(cdatas[i], st.chunk)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			// Every write was replayed first, so each LBA holds its final content.
			if !bytes.Equal(data, st.payload(st.final[lba])) {
				return nil, fmt.Errorf("replay: LBA %d read back wrong bytes", lba)
			}
		}
		lap(&decompress, len(group))
	}

	// Frame codec: one 4-KB write frame encoded and decoded through a
	// buffer. Chunker: no workload uses CDC today; kept so that the
	// one-chunk-representation change (ROADMAP item 5) has a before.
	// Both are short, so each is the median of five rounds.
	const rounds, frames = 5, 4000
	var wire bytes.Buffer
	wire.Grow(st.chunk + 64)
	cdc := chunk.NewCDC(chunk.DefaultCDCMin, chunk.DefaultCDCAvg, chunk.DefaultCDCMax)
	span := st.slab[:min(len(st.slab), 16<<20)]
	var bounds []int
	var codecNS, codecAllocs, cdcGBps []float64
	for round := 0; round < rounds; round++ {
		m0 := mallocs()
		t0 := time.Now()
		for i := 0; i < frames; i++ {
			wire.Reset()
			if err := proto.Write(&wire, proto.Frame{Op: proto.OpWrite, LBA: uint64(i), Payload: st.payload(0)}); err != nil {
				return nil, err
			}
			if _, err := proto.Read(&wire); err != nil {
				return nil, err
			}
		}
		codecNS = append(codecNS, float64(time.Since(t0))/frames)
		codecAllocs = append(codecAllocs, float64(mallocs()-m0)/frames)
		t0 = time.Now()
		bounds = cdc.AppendBoundaries(bounds[:0], span)
		cdcGBps = append(cdcGBps, float64(len(span))/float64(time.Since(t0)))
	}

	// The roofline is the time a request would take if every layer ran at
	// its replayed cost and nothing else happened, weighted by the
	// workload's own op mix. Hashing and compression fan out over the
	// server's lanes; the roofline grants them perfect scaling.
	w, u, r := float64(st.writes), float64(insert.ops), float64(st.reads)
	hashLanes, compLanes := float64(cfg.HashLanes), float64(cfg.CompressLanes)
	ssdWritePerChunk := float64(ssdWrite.ns) / float64(max(insert.ops, 1))
	roofline := (w*(buffer.perOp()+hash.perOp()/hashLanes+lookup.perOp()) +
		u*(compress.perOp()/compLanes+pack.perOp()+insert.perOp()+ssdWritePerChunk) +
		r*(resolve.perOp()+ssdRead.perOp()+decompress.perOp())) / (w + r)
	return map[string]float64{
		"replay.nic_buffer_ns_per_chunk":           buffer.perOp(),
		"replay.fingerprint_ns_per_chunk":          hash.perOp(),
		"replay.tablecache_lookup_ns":              lookup.perOp(),
		"replay.tablecache_lookup_allocs":          float64(lookupAllocs) / float64(max(lookup.ops, 1)),
		"replay.tablecache_insert_ns":              insert.perOp(),
		"replay.blockcomp_compress_ns_per_chunk":   compress.perOp(),
		"replay.blockcomp_decompress_ns_per_chunk": decompress.perOp(),
		"replay.engine_pack_ns_per_chunk":          pack.perOp(),
		"replay.ssd_write_ns_per_container":        ssdWrite.perOp(),
		"replay.ssd_read_ns_per_chunk":             ssdRead.perOp(),
		"replay.lbatable_map_ns":                   lbaMap.perOp(),
		"replay.lbatable_resolve_ns":               resolve.perOp(),
		"replay.proto_codec_ns_per_frame":          summarise(codecNS).Median,
		"replay.proto_codec_allocs_per_frame":      summarise(codecAllocs).Median,
		"replay.chunk_cdc_gbps":                    summarise(cdcGBps).Median,
		"roofline.ns_per_op":                       roofline,
	}, nil
}
