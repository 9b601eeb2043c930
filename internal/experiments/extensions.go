package experiments

import (
	"fmt"

	"fidr/internal/blockcomp"
	"fidr/internal/chunk"
	"fidr/internal/core"
	"fidr/internal/metrics"
	"fidr/internal/metrics/events"
	"fidr/internal/ssd"
	"fidr/internal/trace"
)

// Three studies of what the repo adds around the paper's datapath —
// content-defined chunking, the capacity ledger with garbage collection,
// and the write-ahead log. Each reports counts and ratios only, so its
// table is identical per seed on any machine; anything clocked is
// benchmark/'s to measure.

// chunkings is the row dimension of the three studies: the paper's fixed
// 4-KB chunks (the zero value), then default-sized content-defined ones.
var chunkings = []chunk.Config{{}, chunk.DefaultCDC}

// balanced reports whether the attribution identity logical = dedup +
// compression + stored holds exactly.
func balanced(logical, dedup, compression, stored uint64) bool {
	return dedup+compression+stored == logical
}

// CDCRow is one chunking mode's result on the shared backup stream.
type CDCRow struct {
	Chunker string
	// MinChunk / MaxChunk bound the mode's chunk sizes in bytes.
	MinChunk, MaxChunk int
	Chunks             uint64
	DedupRatio         float64
	MeanChunkBytes     float64
	// LedgerBalanced is the attribution identity after the final flush.
	LedgerBalanced bool
}

// CDC drives four duplicate-rich backup generations — each repeats the
// previous with a few bytes inserted at the front and one region
// rewritten — through a fixed-4K server and a CDC server. Fixed chunking
// loses alignment at every insertion; CDC resynchronizes within a few
// chunks and dedups the unshifted remainder.
func CDC(sc Scale, opts ...func(*runOptions)) ([]CDCRow, *metrics.Table, error) {
	cfg, err := config(core.FIDRFull, sc.IOs, opts)
	if err != nil {
		return nil, nil, err
	}
	// Total bytes track the requested scale.
	genBytes := sc.IOs * cfg.ChunkSize / 4
	if genBytes < 256<<10 {
		genBytes = 256 << 10
	}
	sh := blockcomp.NewShaper(0.5)
	base := make([]byte, genBytes)
	for off := 0; off < len(base); off += cfg.ChunkSize {
		sh.Block(uint64(off)^0xB0B0, base[off:min(off+cfg.ChunkSize, len(base))])
	}
	gens := [][]byte{base}
	for g := 1; g < 4; g++ {
		hdr := fmt.Sprintf("generation-%02d!", g)[:g*3+1]
		next := append([]byte(hdr), gens[g-1]...)
		sh.Block(uint64(g)<<32|0xFEED, next[64<<10:68<<10])
		gens = append(gens, next)
	}

	var rows []CDCRow
	tab := metrics.NewTable("CDC vs fixed chunking: dedup on 4 insertion-shifted backup generations",
		"chunker", "chunk bytes", "chunks", "dedup ratio", "mean chunk bytes", "ledger balanced")
	for _, ck := range chunkings {
		cfg.Chunking = ck
		srv, err := core.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		for g, gen := range gens {
			// Each generation has its own address space.
			if srv.Chunking().Unit() == 1 {
				err = srv.Write(uint64(g)<<40, gen)
			} else {
				err = writeFixed(srv, uint64(g)<<40, gen)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: cdc %s generation %d: %w", ck.Name(), g, err)
			}
		}
		if err := srv.Flush(); err != nil {
			return nil, nil, err
		}
		st, sizes := srv.Stats(), srv.Chunking()
		row := CDCRow{
			Chunker: ck.Name(), MinChunk: sizes.Min, MaxChunk: sizes.Max,
			Chunks:         st.DuplicateChunks + st.UniqueChunks,
			LedgerBalanced: balanced(st.LogicalWriteBytes, st.DedupSavedBytes, st.CompressionSavedBytes, st.StoredBytes),
		}
		row.DedupRatio = float64(st.DuplicateChunks) / float64(row.Chunks)
		row.MeanChunkBytes = float64(st.LogicalWriteBytes) / float64(row.Chunks)
		rows = append(rows, row)
		tab.Row(row.Chunker, fmt.Sprintf("%d-%d", row.MinChunk, row.MaxChunk), row.Chunks,
			row.DedupRatio, row.MeanChunkBytes, row.LedgerBalanced)
	}
	tab.Note("dedup ratio delta (cdc - fixed): %s; generations 2-4 are ~all duplicate content, which only content-defined cuts find again",
		metrics.FormatFloat(rows[1].DedupRatio-rows[0].DedupRatio))
	return rows, tab, nil
}

// writeFixed stores a stream on a fixed-chunking server as consecutive
// chunks from chunk index lba, zero-padding the tail.
func writeFixed(srv *core.Server, lba uint64, stream []byte) error {
	buf := make([]byte, srv.ChunkSize())
	for off := 0; off < len(stream); off += len(buf) {
		clear(buf[copy(buf, stream[off:]):])
		if err := srv.Write(lba+uint64(off/len(buf)), buf); err != nil {
			return err
		}
	}
	return nil
}

// CapacityRow is one chunking mode's attribution ledger and GC pass.
type CapacityRow struct {
	Chunker string
	// The ledger after the workload and overwrite phase, all flushed.
	LogicalWriteBytes, DedupSavedBytes, CompressionSavedBytes, StoredBytes uint64
	// Garbage stranded by the overwrite phase, and what one Compact pass
	// left and reclaimed.
	GarbageBeforeGC, GarbageAfterGC, ReclaimedDeadBytes uint64
	ContainersCompacted                                 int
	// GCRunEvents counts journaled gc_run events.
	GCRunEvents int
}

// Balanced reports whether every logical byte is attributed to exactly
// one of dedup, compression or storage.
func (r CapacityRow) Balanced() bool {
	return balanced(r.LogicalWriteBytes, r.DedupSavedBytes, r.CompressionSavedBytes, r.StoredBytes)
}

// capacityGCThreshold is the dead fraction at which the study's one GC
// pass compacts a container.
const capacityGCThreshold = 0.25

// Capacity runs Write-M, overwrites most of what it wrote with fresh
// content to strand garbage, and runs one Compact pass: where every
// client byte went, and whether GC reclaimed exactly the garbage the
// ledger lost.
func Capacity(sc Scale, opts ...func(*runOptions)) ([]CapacityRow, *metrics.Table, error) {
	cfg, err := config(core.FIDRFull, sc.IOs, opts)
	if err != nil {
		return nil, nil, err
	}
	wp, err := workloadFor("Write-M", sc.IOs, cfg.CacheLines)
	if err != nil {
		return nil, nil, err
	}
	var rows []CapacityRow
	tab := metrics.NewTable(fmt.Sprintf("Capacity ledger and one GC pass (Write-M + overwrite, Compact(%v))", capacityGCThreshold),
		"chunker", "logical B", "dedup saved B", "comp saved B", "stored B", "balanced",
		"garbage B", "after GC B", "reclaimed B", "compacted", "gc_run events")
	for _, ck := range chunkings {
		cfg.Chunking = ck
		srv, err := core.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		journal := events.NewJournal(0)
		srv.SetEventJournal(journal, 0)
		if err := play(srv, wp); err != nil {
			return nil, nil, err
		}
		if err := overwriteMost(srv, wp); err != nil {
			return nil, nil, err
		}
		before := srv.CapacityReport(capacityGCThreshold)
		res, err := srv.Compact(capacityGCThreshold)
		if err != nil {
			return nil, nil, err
		}
		after := srv.CapacityReport(capacityGCThreshold)
		row := CapacityRow{
			Chunker:               ck.Name(),
			LogicalWriteBytes:     before.LogicalWriteBytes,
			DedupSavedBytes:       before.DedupSavedBytes,
			CompressionSavedBytes: before.CompressionSavedBytes,
			StoredBytes:           before.StoredBytes,
			GarbageBeforeGC:       before.GarbageBytes,
			GarbageAfterGC:        after.GarbageBytes,
			ReclaimedDeadBytes:    after.ReclaimedDeadBytes,
			ContainersCompacted:   res.ContainersCompacted,
		}
		for _, ev := range journal.Since(0) {
			if ev.Type == events.TypeGCRun {
				row.GCRunEvents++
			}
		}
		rows = append(rows, row)
		tab.Row(row.Chunker, row.LogicalWriteBytes, row.DedupSavedBytes, row.CompressionSavedBytes,
			row.StoredBytes, row.Balanced(), row.GarbageBeforeGC, row.GarbageAfterGC,
			row.ReclaimedDeadBytes, row.ContainersCompacted, row.GCRunEvents)
	}
	tab.Note("balanced: logical = dedup saved + compression saved + stored, exactly; reclaimed = garbage - after GC, exactly; compacted counts containers")
	return rows, tab, nil
}

// overwriteMost rewrites the LBAs wp's trace wrote with unique, unseen
// content, retiring their old mappings. Shared dedup chunks only die
// once their last referencing LBA is rewritten, so the sweep covers
// nearly all of them; every 16th keeps its data so the GC pass has
// survivors to move as well as dead chunks to drop.
func overwriteMost(srv *core.Server, wp trace.Params) error {
	gen, err := trace.NewGenerator(wp)
	if err != nil {
		return err
	}
	cfg := srv.Config()
	sh := blockcomp.NewShaper(wp.CompressRatio)
	buf := make([]byte, cfg.ChunkSize)
	seen := make(map[uint64]bool)
	for req, ok := gen.Next(); ok; req, ok = gen.Next() {
		if req.Op != trace.OpWrite || seen[req.LBA] {
			continue
		}
		seen[req.LBA] = true
		if i := len(seen) - 1; i%16 != 0 {
			sh.Block(uint64(1<<40)+uint64(i), buf)
			if err := srv.Write(traceAddr(cfg, req.LBA), buf); err != nil {
				return fmt.Errorf("experiments: capacity overwrite: %w", err)
			}
		}
	}
	return srv.Flush()
}

// RecoveryPoint is one crash/recover cycle of the archival sweep: the
// WAL length at the crash and the records recovery replayed from it.
type RecoveryPoint struct {
	LogFraction     float64
	WALBytes        int64
	ReplayedRecords int
}

// ArchivalRow is one chunking mode's WAL-attached Archival ingest and
// its recovery sweep.
type ArchivalRow struct {
	Chunker string
	// AppendedRecords / DurableBytes are the log's commit totals for the
	// whole ingest.
	AppendedRecords uint64
	DurableBytes    int64
	Sweep           [4]RecoveryPoint
}

// Archival ingests the Archival workload on a WAL-attached server, then
// crashes and recovers a checkpointed server against growing log
// lengths: recovery work (records replayed) follows the log written
// since the checkpoint, not the volume's size.
func Archival(sc Scale, opts ...func(*runOptions)) ([]ArchivalRow, *metrics.Table, error) {
	cfg, err := config(core.FIDRFull, sc.IOs, opts)
	if err != nil {
		return nil, nil, err
	}
	wp, err := workloadFor("Archival", sc.IOs, cfg.CacheLines)
	if err != nil {
		return nil, nil, err
	}
	var rows []ArchivalRow
	tab := metrics.NewTable("Archival ingest under a WAL, and recovery work vs log length",
		"chunker", "appended records", "durable WAL B", "log fraction", "WAL B at crash", "replayed records")
	for _, ck := range chunkings {
		cfg.Chunking = ck
		ingest := cfg
		if ingest.WAL, err = core.NewWAL(core.NewMemWALDevice()); err != nil {
			return nil, nil, err
		}
		srv, err := core.New(ingest)
		if err != nil {
			return nil, nil, err
		}
		if err := play(srv, wp); err != nil {
			return nil, nil, err
		}
		ws := ingest.WAL.Stats()
		row := ArchivalRow{Chunker: ck.Name(), AppendedRecords: ws.AppendedRecords, DurableBytes: ws.DurableBytes}
		for i, frac := range []float64{0.25, 0.5, 0.75, 1} {
			if row.Sweep[i], err = recoveryPoint(cfg, wp, frac); err != nil {
				return nil, nil, fmt.Errorf("experiments: archival %s recovery at %v: %w", ck.Name(), frac, err)
			}
			pt := row.Sweep[i]
			tab.Row(row.Chunker, row.AppendedRecords, row.DurableBytes, pt.LogFraction, pt.WALBytes, pt.ReplayedRecords)
		}
		rows = append(rows, row)
	}
	tab.Note("each sweep point checkpoints after half the trace, writes that fraction of the rest, loses power and recovers")
	return rows, tab, nil
}

// recoveryPoint runs one crash/recover cycle. The first half of the
// trace is checkpointed, so only the fraction written after it lives in
// the WAL when the log device drops everything past its durable image.
func recoveryPoint(cfg core.Config, wp trace.Params, frac float64) (RecoveryPoint, error) {
	// Recovery reopens the crashed server's devices, so they are built
	// here rather than inside core.New.
	dev := ssd.Config{CapacityBytes: max(uint64(wp.TotalIOs)*4096*2, 1<<28), PageSize: 4096, ReadBW: 3.5e9, WriteBW: 2.7e9}
	dev.Name = "tssd"
	cfg.TableSSD = ssd.MustNew(dev)
	dev.Name = "dssd"
	cfg.DataSSD = ssd.MustNew(dev)
	walDev := core.NewMemWALDevice()
	var err error
	if cfg.WAL, err = core.NewWAL(walDev); err != nil {
		return RecoveryPoint{}, err
	}
	srv, err := core.New(cfg)
	if err != nil {
		return RecoveryPoint{}, err
	}
	gen, err := trace.NewGenerator(wp)
	if err != nil {
		return RecoveryPoint{}, err
	}
	sh := blockcomp.NewShaper(wp.CompressRatio)
	base := wp.TotalIOs / 2
	if err := drive(srv, gen, sh, base); err != nil {
		return RecoveryPoint{}, err
	}
	if err := srv.Checkpoint(); err != nil {
		return RecoveryPoint{}, err
	}
	if err := drive(srv, gen, sh, int(frac*float64(wp.TotalIOs-base))); err != nil {
		return RecoveryPoint{}, err
	}
	if err := srv.Flush(); err != nil {
		return RecoveryPoint{}, err
	}

	walDev.Crash()
	if cfg.WAL, err = core.NewWAL(walDev); err != nil {
		return RecoveryPoint{}, err
	}
	pt := RecoveryPoint{LogFraction: frac, WALBytes: cfg.WAL.Stats().DurableBytes}
	rec, err := core.RecoverServer(cfg)
	if err != nil {
		return RecoveryPoint{}, err
	}
	pt.ReplayedRecords = rec.LastRecovery().ReplayedRecords
	return pt, nil
}
