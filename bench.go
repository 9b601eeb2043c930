package fidr

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/chunk"
	"fidr/internal/core"
	"fidr/internal/experiments"
	"fidr/internal/lanes"
	"fidr/internal/metrics"
	"fidr/internal/ssd"
	"fidr/internal/trace"
	"fidr/internal/trace/span"
)

// Bench artifact pipeline: machine-readable benchmark results. Each
// bench experiment drives a server (or cluster) through a Table 3
// workload with observability on, then distills the live metrics into a
// BENCH_<experiment>.json artifact — throughput, reduction ratios, and
// p50/p90/p99 stage latencies — that CI can archive and diff across
// commits. The schema is documented in README.md.

// BenchSchema versions the artifact layout.
const BenchSchema = "fidr-bench/1"

// BenchLatency summarizes one latency histogram, in nanoseconds.
type BenchLatency struct {
	Count  uint64  `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  float64 `json:"p50_ns"`
	P90NS  float64 `json:"p90_ns"`
	P99NS  float64 `json:"p99_ns"`
	MaxNS  float64 `json:"max_ns"`
}

// BenchShard reports one cluster group's share of the run.
type BenchShard struct {
	Group      int     `json:"group"`
	Writes     uint64  `json:"writes"`
	Reads      uint64  `json:"reads"`
	WriteShare float64 `json:"write_share"`
	DedupRatio float64 `json:"dedup_ratio"`
}

// BenchArtifact is the schema of a BENCH_<experiment>.json file.
type BenchArtifact struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Arch       string `json:"arch"`
	Workload   string `json:"workload"`
	IOs        int    `json:"ios"`
	Groups     int    `json:"groups"`
	// Chunker records the write-path chunking mode ("fixed" or "cdc").
	Chunker string `json:"chunker,omitempty"`

	// HashLanes / CompressLanes record the accelerator lane-array widths
	// the run used (hash cores and compression pipelines).
	HashLanes     int `json:"hash_lanes"`
	CompressLanes int `json:"compress_lanes"`

	WallSeconds    float64 `json:"wall_seconds"`
	ThroughputMBps float64 `json:"throughput_mbps"`

	DedupRatio     float64 `json:"dedup_ratio"`
	ReductionRatio float64 `json:"reduction_ratio"`
	CacheHitRate   float64 `json:"cache_hit_rate"`

	// StageLatencyNS keys are pipeline stage slugs ("hash",
	// "dedup_lookup", ...); RequestLatencyNS keys are request-level
	// histogram names with the ".ns" suffix stripped ("latency.write_ack",
	// "cluster.write", ...).
	StageLatencyNS   map[string]BenchLatency `json:"stage_latency_ns"`
	RequestLatencyNS map[string]BenchLatency `json:"request_latency_ns"`

	// DeviceUtilization maps each device's busy_ns counter (suffix
	// stripped) to busy time over wall time, clamped to [0,1].
	DeviceUtilization map[string]float64 `json:"device_utilization"`

	// Data-movement totals from the accounting ledgers: bytes through
	// host DRAM (all traffic, and the client-payload share), and bytes
	// moved peer-to-peer under the switch vs. through the root complex.
	HostDRAMBytes        uint64 `json:"host_dram_bytes"`
	HostDRAMPayloadBytes uint64 `json:"host_dram_payload_bytes"`
	PCIeP2PBytes         uint64 `json:"pcie_p2p_bytes"`
	PCIeRootBytes        uint64 `json:"pcie_root_bytes"`

	// Cluster runs only.
	Shards              []BenchShard `json:"shards,omitempty"`
	ShardImbalance      float64      `json:"shard_imbalance,omitempty"`
	CrossShardDupChunks uint64       `json:"cross_shard_dup_chunks,omitempty"`

	// Lane-sweep runs only: per-lane-count measurements of the same
	// workload, and the widest/serial throughput ratio. Throughput
	// scaling depends on the host's core count; outputs are identical.
	LanePoints  []BenchLanePoint `json:"lane_points,omitempty"`
	LaneSpeedup float64          `json:"lane_speedup,omitempty"`

	// WAL-attached runs only: the log's commit totals for the measured
	// run, and the recovery sweep (crash + RecoverServer + replay timed
	// against growing post-checkpoint log lengths).
	WALAppendedRecords uint64               `json:"wal_appended_records,omitempty"`
	WALDurableBytes    int64                `json:"wal_durable_bytes,omitempty"`
	RecoveryPoints     []BenchRecoveryPoint `json:"recovery_points,omitempty"`

	// Tracing runs only: per-workload throughput with head sampling off
	// vs. on, and the worst write-workload overhead.
	// Acceptance: sampled tracing should cost <= ~5% write throughput.
	TracePoints           []BenchTracePoint `json:"trace_points,omitempty"`
	TraceWriteOverheadPct float64           `json:"trace_write_overhead_pct,omitempty"`

	// Capacity runs only: the reduction-attribution ledger and one
	// measured GC pass (see BenchCapacity).
	Capacity *BenchCapacity `json:"capacity,omitempty"`

	// CDC runs only: chunker microbenchmark and the fixed-vs-CDC
	// end-to-end comparison (see BenchCDC).
	CDC *BenchCDC `json:"cdc,omitempty"`
}

// BenchCDC captures the cdc experiment. The chunker section is the
// single-core microbenchmark over one NIC-ingest-batch of shaped
// content: the skip-ahead fast path, the scalar gear reference it is
// proven byte-identical to (internal/chunk equivalence suite), and the
// legacy rolling-hash chunker. The end-to-end section drives the same
// duplicate-rich backup generations — each repeating the previous with
// a small insertion near the front — through a fixed-4K server and a
// CDC server: fixed chunking loses alignment at the insertion, CDC
// resynchronizes and dedups the unshifted remainder.
type BenchCDC struct {
	MinChunk int `json:"min_chunk"`
	AvgChunk int `json:"avg_chunk"`
	MaxChunk int `json:"max_chunk"`

	ChunkerFastGBps      float64 `json:"chunker_fast_gbps"`
	ChunkerReferenceGBps float64 `json:"chunker_reference_gbps"`
	ChunkerRollingGBps   float64 `json:"chunker_rolling_gbps"`
	// ChunkerSpeedup is fast over reference (acceptance: >= 5x, judged
	// by BenchmarkCDCBoundaries on quiet hardware; bench-run values are
	// load-dependent).
	ChunkerSpeedup float64 `json:"chunker_speedup"`

	FixedThroughputMBps float64 `json:"fixed_throughput_mbps"`
	CDCThroughputMBps   float64 `json:"cdc_throughput_mbps"`
	FixedDedupRatio     float64 `json:"fixed_dedup_ratio"`
	CDCDedupRatio       float64 `json:"cdc_dedup_ratio"`
	// DedupRatioDelta is CDC minus fixed on the same byte streams.
	DedupRatioDelta float64 `json:"dedup_ratio_delta"`
	MeanChunkBytes  float64 `json:"mean_chunk_bytes"`
	// LedgerBalanced asserts logical = dedup + compression + stored held
	// exactly on the CDC server after the final flush.
	LedgerBalanced bool `json:"ledger_balanced"`
}

// BenchCapacity captures the capacity experiment: where every client
// write byte went (the attribution identity logical = dedup + compression
// + stored must balance exactly after the final flush), the garbage an
// overwrite phase stranded, and what one Compact pass at GCThreshold
// reclaimed.
type BenchCapacity struct {
	LogicalWriteBytes     uint64  `json:"logical_write_bytes"`
	DedupSavedBytes       uint64  `json:"dedup_saved_bytes"`
	CompressionSavedBytes uint64  `json:"compression_saved_bytes"`
	StoredBytes           uint64  `json:"stored_bytes"`
	ReductionRatio        float64 `json:"reduction_ratio"`

	GCThreshold          float64 `json:"gc_threshold"`
	GarbageBeforeGCBytes uint64  `json:"garbage_before_gc_bytes"`
	GarbageAfterGCBytes  uint64  `json:"garbage_after_gc_bytes"`
	ReclaimedDeadBytes   uint64  `json:"reclaimed_dead_bytes"`
	ContainersCompacted  int     `json:"containers_compacted"`

	HeatmapBuckets int `json:"heatmap_buckets"`
	GCRunEvents    int `json:"gc_run_events"`
}

// BenchTracePoint compares one workload's throughput with distributed
// tracing off vs. on (head-sampled, every 16th request). OverheadPct is
// the relative throughput loss in percent; small negative values are
// run-to-run noise.
type BenchTracePoint struct {
	Workload    string  `json:"workload"`
	OffMBps     float64 `json:"off_mbps"`
	OnMBps      float64 `json:"on_mbps"`
	OverheadPct float64 `json:"overhead_pct"`
}

// BenchRecoveryPoint is one crash-recovery measurement: the server is
// checkpointed mid-workload, runs WALFraction of the remaining trace,
// crashes, and is timed through RecoverServer + WAL replay.
type BenchRecoveryPoint struct {
	WALFraction     float64 `json:"wal_fraction"`
	WALBytes        int64   `json:"wal_bytes"`
	ReplayedRecords int     `json:"replayed_records"`
	RecoveryMillis  float64 `json:"recovery_ms"`
}

// BenchLanePoint is one lane-count measurement from the lane sweep.
type BenchLanePoint struct {
	Lanes          int     `json:"lanes"`
	WallSeconds    float64 `json:"wall_seconds"`
	ThroughputMBps float64 `json:"throughput_mbps"`
}

// benchSpec names one bench experiment.
type benchSpec struct {
	workload  string
	arch      Arch
	groups    int
	laneSweep bool
	// archival attaches a WAL and appends the crash-recovery sweep.
	archival bool
	// tracing runs every Table 3 workload twice — head sampling off,
	// then on — and records the throughput deltas.
	tracing bool
	// capacity appends an overwrite phase and a measured GC pass,
	// recording the attribution ledger (see BenchCapacity).
	capacity bool
	// cdc runs the variable-size chunk datapath comparison (BenchCDC).
	cdc bool
}

var benchSpecs = map[string]benchSpec{
	"writeh":    {workload: "Write-H", arch: FIDRFull, groups: 1},
	"writem":    {workload: "Write-M", arch: FIDRFull, groups: 1},
	"writel":    {workload: "Write-L", arch: FIDRFull, groups: 1},
	"readmixed": {workload: "Read-Mixed", arch: FIDRFull, groups: 1},
	"cluster4":  {workload: "Write-H", arch: FIDRFull, groups: 4},
	"lanes":     {workload: "Write-L", arch: FIDRFull, groups: 1, laneSweep: true},
	"archival":  {workload: "Archival", arch: FIDRFull, groups: 1, archival: true},
	"tracing":   {workload: "Write-H", arch: FIDRFull, groups: 1, tracing: true},
	"capacity":  {workload: "Write-M", arch: FIDRFull, groups: 1, capacity: true},
	"cdc":       {workload: "Write-M", arch: FIDRFull, groups: 1, cdc: true},
}

// BenchExperiments lists bench experiment names, sorted.
func BenchExperiments() []string {
	out := make([]string, 0, len(benchSpecs))
	for name := range benchSpecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RunBenchExperiment executes one bench experiment and returns its
// artifact. ios sizes the workload (0 selects the default scale).
func RunBenchExperiment(name string, ios int) (BenchArtifact, error) {
	return RunBenchExperimentChunker(name, ios, chunk.Config{})
}

// RunBenchExperimentChunker is RunBenchExperiment with an explicit
// chunking mode (the -chunker flag): ModeCDC reruns the experiment's
// workload over a content-defined-chunking server, with each trace write
// ingested as a stream segment at its byte-offset extent.
func RunBenchExperimentChunker(name string, ios int, chunking chunk.Config) (BenchArtifact, error) {
	spec, ok := benchSpecs[name]
	if !ok {
		return BenchArtifact{}, fmt.Errorf("fidr: unknown bench experiment %q (see BenchExperiments())", name)
	}
	if err := chunking.Normalize(); err != nil {
		return BenchArtifact{}, fmt.Errorf("fidr: %w", err)
	}
	if ios <= 0 {
		ios = experiments.DefaultScale().IOs
	}
	cfg, err := experiments.ConfigFor(spec.arch, ios)
	if err != nil {
		return BenchArtifact{}, err
	}
	cfg.Chunking = chunking
	wp, err := experiments.WorkloadParams(spec.workload, ios, cfg.CacheLines)
	if err != nil {
		return BenchArtifact{}, err
	}

	art := BenchArtifact{
		Schema:     BenchSchema,
		Experiment: name,
		Arch:       spec.arch.String(),
		Workload:   spec.workload,
		IOs:        ios,
		Groups:     spec.groups,
		Chunker:    chunking.Mode.String(),
	}
	art.HashLanes = lanes.Normalize(cfg.HashLanes)
	art.CompressLanes = lanes.Normalize(cfg.CompressLanes)
	switch {
	case spec.cdc:
		err = runBenchCDC(cfg, wp, &art)
	case spec.capacity:
		err = runBenchCapacity(cfg, wp, &art)
	case spec.tracing:
		err = runBenchTracing(cfg, ios, &art)
	case spec.laneSweep:
		err = runBenchLaneSweep(cfg, wp, &art)
	case spec.archival:
		err = runBenchArchival(cfg, wp, &art)
	case spec.groups > 1:
		err = runBenchCluster(cfg, wp, spec.groups, &art)
	default:
		err = runBenchSingle(cfg, wp, &art)
	}
	return art, err
}

// runBenchLaneSweep runs the workload at 1, 2, 4 and 8 accelerator
// lanes. The widest run fills the artifact body; every point lands in
// LanePoints and LaneSpeedup is widest over serial throughput.
func runBenchLaneSweep(cfg Config, wp Workload, art *BenchArtifact) error {
	widths := []int{1, 2, 4, 8}
	for i, n := range widths {
		c := cfg
		c.HashLanes = n
		c.CompressLanes = n
		target := &BenchArtifact{}
		if i == len(widths)-1 {
			target = art
		}
		if err := runBenchSingle(c, wp, target); err != nil {
			return err
		}
		art.LanePoints = append(art.LanePoints, BenchLanePoint{
			Lanes:          n,
			WallSeconds:    target.WallSeconds,
			ThroughputMBps: target.ThroughputMBps,
		})
	}
	art.HashLanes = widths[len(widths)-1]
	art.CompressLanes = widths[len(widths)-1]
	if serial := art.LanePoints[0].ThroughputMBps; serial > 0 {
		art.LaneSpeedup = art.LanePoints[len(art.LanePoints)-1].ThroughputMBps / serial
	}
	return nil
}

// runBenchTracing measures the cost of sampled tracing. Each Table 3
// workload runs twice on identically configured servers, both handing
// every request's span tree to a collector (the always-on recent and
// slow views) — head sampling off, then on (every 16th request gets
// histogram exemplars and by-ID retention) — and the throughput delta
// lands in TracePoints. The sampled Write-H run fills the artifact
// body, and TraceWriteOverheadPct records the worst write-workload
// overhead against the <= ~5% acceptance bar.
func runBenchTracing(cfg Config, ios int, art *BenchArtifact) error {
	for _, name := range []string{"Write-H", "Write-M", "Write-L", "Read-Mixed"} {
		wp, err := experiments.WorkloadParams(name, ios, cfg.CacheLines)
		if err != nil {
			return err
		}
		off := &BenchArtifact{}
		if err := benchTracingPass(cfg, wp, false, off); err != nil {
			return err
		}
		on := &BenchArtifact{}
		if name == art.Workload {
			on = art
		}
		if err := benchTracingPass(cfg, wp, true, on); err != nil {
			return err
		}
		pt := BenchTracePoint{Workload: name, OffMBps: off.ThroughputMBps, OnMBps: on.ThroughputMBps}
		if pt.OffMBps > 0 {
			pt.OverheadPct = (pt.OffMBps - pt.OnMBps) / pt.OffMBps * 100
		}
		art.TracePoints = append(art.TracePoints, pt)
		if strings.HasPrefix(name, "Write") && pt.OverheadPct > art.TraceWriteOverheadPct {
			art.TraceWriteOverheadPct = pt.OverheadPct
		}
	}
	return nil
}

// benchTracingPass is runBenchSingle with a trace collector attached
// and head sampling optionally armed before traffic.
func benchTracingPass(cfg Config, wp Workload, sampled bool, art *BenchArtifact) error {
	srv, err := NewServer(cfg)
	if err != nil {
		return err
	}
	view := srv.EnableObservability(nil)
	srv.SetSpanCollector(span.NewCollector(0, 0, 0), 0)
	if sampled {
		srv.SetTraceSampling(16)
	}
	wall, err := driveBench(srv, wp, cfg)
	if err != nil {
		return err
	}
	fillBenchArtifact(art, srv.Stats(), srv.CacheStats().HitRate(), wall, view.Snapshot())
	return nil
}

func runBenchSingle(cfg Config, wp Workload, art *BenchArtifact) error {
	srv, err := NewServer(cfg)
	if err != nil {
		return err
	}
	view := srv.EnableObservability(nil)
	wall, err := driveBench(srv, wp, cfg)
	if err != nil {
		return err
	}
	st := srv.Stats()
	fillBenchArtifact(art, st, srv.CacheStats().HitRate(), wall, view.Snapshot())
	return nil
}

// runBenchCDC measures the variable-size chunk datapath. Part 1 is the
// single-core chunker microbenchmark over one NIC-ingest-batch (1 MiB)
// of Shaper content at the workload's compression ratio. Part 2 builds
// duplicate-rich backup generations — each generation repeats the
// previous with a small insertion near the front — and drives the same
// bytes through a fixed-ChunkSize server and a CDC server; the CDC run
// fills the artifact body. Fixed chunking loses alignment at every
// insertion; CDC resynchronizes within a few chunks and dedups the
// unshifted remainder, which is the dedup_ratio_delta the artifact
// records.
func runBenchCDC(cfg Config, wp Workload, art *BenchArtifact) error {
	ck := chunk.Config{Mode: chunk.ModeCDC}
	if err := ck.Normalize(); err != nil {
		return err
	}
	cdc := &BenchCDC{MinChunk: ck.Min, AvgChunk: ck.Avg, MaxChunk: ck.Max}
	art.CDC = cdc
	art.Chunker = chunk.ModeCDC.String()

	// Part 1: chunking GB/s on one ingest batch of shaped content.
	chunker, err := ck.NewChunker()
	if err != nil {
		return err
	}
	sh := blockcomp.NewShaper(wp.CompressRatio)
	batch := make([]byte, 1<<20)
	for off := 0; off < len(batch); off += 4096 {
		sh.Block(uint64(off), batch[off:off+4096])
	}
	cdc.ChunkerFastGBps = chunkRate(len(batch), func(scratch []int) []int {
		return chunker.AppendBoundaries(scratch, batch)
	})
	cdc.ChunkerReferenceGBps = chunkRate(len(batch), func(scratch []int) []int {
		return chunker.ReferenceBoundaries(scratch, batch)
	})
	roll := chunk.NewRolling(ck.Min, ck.Avg, ck.Max)
	cdc.ChunkerRollingGBps = chunkRate(len(batch), func(scratch []int) []int {
		return append(scratch, roll.Boundaries(batch)...)
	})
	if cdc.ChunkerReferenceGBps > 0 {
		cdc.ChunkerSpeedup = cdc.ChunkerFastGBps / cdc.ChunkerReferenceGBps
	}

	// Part 2: backup generations. Total bytes track the requested scale.
	genBytes := wp.TotalIOs * cfg.ChunkSize / 4
	if genBytes < 256<<10 {
		genBytes = 256 << 10
	}
	base := make([]byte, genBytes)
	for off := 0; off < len(base); off += cfg.ChunkSize {
		end := off + cfg.ChunkSize
		if end > len(base) {
			end = len(base)
		}
		sh.Block(uint64(off)^0xB0B0, base[off:end])
	}
	gens := [][]byte{base}
	for g := 1; g < 4; g++ {
		prev := gens[g-1]
		hdr := []byte(fmt.Sprintf("generation-%02d!", g))
		next := make([]byte, 0, len(prev)+len(hdr))
		next = append(next, hdr[:g*3+1]...)
		next = append(next, prev...)
		// One rewritten region per generation, fresh unique content.
		if len(next) > 96<<10 {
			sh.Block(uint64(g)<<32|0xFEED, next[64<<10:68<<10])
		}
		gens = append(gens, next)
	}

	// Fixed server: 4-KB chunks, zero-padded tails, per-generation LBA
	// spaces.
	fixedSrv, err := NewServer(cfg)
	if err != nil {
		return err
	}
	buf := make([]byte, cfg.ChunkSize)
	start := time.Now()
	for g, gen := range gens {
		for off := 0; off < len(gen); off += cfg.ChunkSize {
			n := copy(buf, gen[off:])
			for i := n; i < len(buf); i++ {
				buf[i] = 0
			}
			lba := uint64(g)<<40 | uint64(off/cfg.ChunkSize)
			if err := fixedSrv.Write(lba, buf); err != nil {
				return fmt.Errorf("fidr: bench cdc fixed write: %w", err)
			}
		}
	}
	if err := fixedSrv.Flush(); err != nil {
		return err
	}
	fixedWall := time.Since(start)

	// CDC server: each generation is one stream write in its own extent
	// space; the NIC chunks it, draining batches as the buffer fills.
	c := cfg
	c.Chunking = ck
	cdcSrv, err := NewServer(c)
	if err != nil {
		return err
	}
	view := cdcSrv.EnableObservability(nil)
	start = time.Now()
	for g, gen := range gens {
		if err := cdcSrv.Write(uint64(g)<<40, gen); err != nil {
			return fmt.Errorf("fidr: bench cdc stream write: %w", err)
		}
	}
	if err := cdcSrv.Flush(); err != nil {
		return err
	}
	cdcWall := time.Since(start)

	fixedSt, cdcSt := fixedSrv.Stats(), cdcSrv.Stats()
	if fixedWall > 0 {
		cdc.FixedThroughputMBps = float64(fixedSt.ClientBytes) / 1e6 / fixedWall.Seconds()
	}
	if cdcWall > 0 {
		cdc.CDCThroughputMBps = float64(cdcSt.ClientBytes) / 1e6 / cdcWall.Seconds()
	}
	if tot := fixedSt.DuplicateChunks + fixedSt.UniqueChunks; tot > 0 {
		cdc.FixedDedupRatio = float64(fixedSt.DuplicateChunks) / float64(tot)
	}
	if tot := cdcSt.DuplicateChunks + cdcSt.UniqueChunks; tot > 0 {
		cdc.CDCDedupRatio = float64(cdcSt.DuplicateChunks) / float64(tot)
		cdc.MeanChunkBytes = float64(cdcSt.LogicalWriteBytes) / float64(tot)
	}
	cdc.DedupRatioDelta = cdc.CDCDedupRatio - cdc.FixedDedupRatio
	cdc.LedgerBalanced = cdcSt.DedupSavedBytes+cdcSt.CompressionSavedBytes+cdcSt.StoredBytes == cdcSt.LogicalWriteBytes

	fillBenchArtifact(art, cdcSt, cdcSrv.CacheStats().HitRate(), cdcWall, view.Snapshot())
	return nil
}

// chunkRate times fn (which must consume a fixed n input bytes per call,
// recycling the boundary scratch) and returns GB/s.
func chunkRate(n int, fn func([]int) []int) float64 {
	scratch := fn(nil) // warm caches and the scratch buffer
	const rounds = 48
	start := time.Now()
	for i := 0; i < rounds; i++ {
		scratch = fn(scratch[:0])
	}
	el := time.Since(start).Seconds()
	if el <= 0 {
		return 0
	}
	_ = scratch
	return float64(n) * rounds / el / 1e9
}

// runBenchCapacity drives the workload while recording the LBAs it
// touches, then overwrites half of them with fresh unique content to
// strand garbage, and runs one Compact pass. The artifact's capacity
// section records the attribution ledger (which must balance exactly
// after the flush), the garbage before/after GC, and the journaled
// gc_run evidence. Smaller containers than the architecture default
// make sure the bench-scale workload seals enough of them to give the
// GC real candidates.
func runBenchCapacity(cfg Config, wp Workload, art *BenchArtifact) error {
	const threshold = 0.25
	c := cfg
	c.ContainerSize = 256 << 10
	srv, err := NewServer(c)
	if err != nil {
		return err
	}
	journal := NewEventJournal(256)
	srv.SetEventJournal(journal, 0)
	view := srv.EnableObservability(nil)

	gen, err := trace.NewGenerator(wp)
	if err != nil {
		return err
	}
	sh := blockcomp.NewShaper(wp.CompressRatio)
	buf := make([]byte, c.ChunkSize)
	seen := make(map[uint64]bool)
	var lbas []uint64
	start := time.Now()
	for {
		req, ok := gen.Next()
		if !ok {
			break
		}
		switch req.Op {
		case trace.OpWrite:
			sh.Block(req.ContentSeed, buf)
			if err := srv.Write(benchAddr(c, req.LBA), buf); err != nil {
				return fmt.Errorf("fidr: bench capacity write: %w", err)
			}
			if !seen[req.LBA] {
				seen[req.LBA] = true
				lbas = append(lbas, req.LBA)
			}
		case trace.OpRead:
			if _, err := srv.Read(benchAddr(c, req.LBA)); err != nil && err != core.ErrNotFound {
				return fmt.Errorf("fidr: bench capacity read: %w", err)
			}
		}
	}
	if err := srv.Flush(); err != nil {
		return err
	}
	wall := time.Since(start)

	// Overwrite phase: most written LBAs get unique, previously unseen
	// content, retiring their old mappings. Shared dedup chunks only die
	// once their last referencing LBA is rewritten, so the sweep must
	// cover nearly all of them; every 16th LBA keeps its data so the GC
	// pass has survivors to move as well as dead chunks to drop.
	for i, lba := range lbas {
		if i%16 == 0 {
			continue
		}
		sh.Block(uint64(1<<40)+uint64(i), buf)
		if err := srv.Write(benchAddr(c, lba), buf); err != nil {
			return fmt.Errorf("fidr: bench capacity overwrite: %w", err)
		}
	}
	if err := srv.Flush(); err != nil {
		return err
	}

	before := srv.CapacityReport(threshold)
	res, err := srv.Compact(threshold)
	if err != nil {
		return err
	}
	after := srv.CapacityReport(threshold)
	hm := srv.ContainerHeatmap()

	gcRuns := 0
	for _, ev := range journal.Since(0) {
		if ev.Type == "gc_run" {
			gcRuns++
		}
	}
	art.Capacity = &BenchCapacity{
		LogicalWriteBytes:     before.LogicalWriteBytes,
		DedupSavedBytes:       before.DedupSavedBytes,
		CompressionSavedBytes: before.CompressionSavedBytes,
		StoredBytes:           before.StoredBytes,
		ReductionRatio:        before.ReductionRatio,
		GCThreshold:           threshold,
		GarbageBeforeGCBytes:  before.GarbageBytes,
		GarbageAfterGCBytes:   after.GarbageBytes,
		ReclaimedDeadBytes:    after.ReclaimedDeadBytes,
		ContainersCompacted:   res.ContainersCompacted,
		HeatmapBuckets:        len(hm.Buckets),
		GCRunEvents:           gcRuns,
	}
	fillBenchArtifact(art, srv.Stats(), srv.CacheStats().HitRate(), wall, view.Snapshot())
	return nil
}

func runBenchCluster(cfg Config, wp Workload, groups int, art *BenchArtifact) error {
	cl, err := NewCluster(cfg, groups)
	if err != nil {
		return err
	}
	view := cl.EnableObservability()
	wall, err := driveBench(cl, wp, cfg)
	if err != nil {
		return err
	}
	st := cl.Stats()
	var hits, lookups uint64
	writes := make([]float64, groups)
	for i := 0; i < groups; i++ {
		cs := cl.Group(i).CacheStats()
		hits += cs.Hits
		lookups += cs.Lookups
		gs := cl.Group(i).Stats()
		writes[i] = float64(gs.ClientWrites)
		shard := BenchShard{
			Group:  i,
			Writes: gs.ClientWrites,
			Reads:  gs.ClientReads,
		}
		if st.ClientWrites > 0 {
			shard.WriteShare = float64(gs.ClientWrites) / float64(st.ClientWrites)
		}
		if tot := gs.DuplicateChunks + gs.UniqueChunks; tot > 0 {
			shard.DedupRatio = float64(gs.DuplicateChunks) / float64(tot)
		}
		art.Shards = append(art.Shards, shard)
	}
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(hits) / float64(lookups)
	}
	art.ShardImbalance = imbalance(writes)
	art.CrossShardDupChunks = uint64(cl.obs.crossDupChunks.Value())
	fillBenchArtifact(art, st, hitRate, wall, view.Snapshot())
	return nil
}

// runBenchArchival drives the Archival workload on a WAL-attached
// server for the artifact body, then measures crash recovery against
// growing log lengths: for each fraction, a fresh server checkpoints a
// base of half the trace, runs that fraction of the remainder, loses
// power (the log device drops everything past its durable image), and
// is timed through RecoverServer + WAL replay.
func runBenchArchival(cfg Config, wp Workload, art *BenchArtifact) error {
	w, err := core.NewWAL(core.NewMemWALDevice())
	if err != nil {
		return err
	}
	c := cfg
	c.WAL = w
	srv, err := NewServer(c)
	if err != nil {
		return err
	}
	view := srv.EnableObservability(nil)
	wall, err := driveBench(srv, wp, cfg)
	if err != nil {
		return err
	}
	st := srv.Stats()
	fillBenchArtifact(art, st, srv.CacheStats().HitRate(), wall, view.Snapshot())
	ws := srv.WALStats()
	art.WALAppendedRecords = ws.AppendedRecords
	art.WALDurableBytes = ws.DurableBytes

	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		pt, err := benchRecoveryPoint(cfg, wp, frac)
		if err != nil {
			return fmt.Errorf("fidr: bench recovery sweep at %.2f: %w", frac, err)
		}
		art.RecoveryPoints = append(art.RecoveryPoints, pt)
	}
	return nil
}

// benchRecoveryPoint runs one crash/recover cycle and times the
// recovery. The base (first half of the trace) is checkpointed so only
// the fraction written after it lives in the WAL at crash time.
func benchRecoveryPoint(cfg Config, wp Workload, frac float64) (BenchRecoveryPoint, error) {
	capacity := uint64(wp.TotalIOs) * 4096 * 2
	if capacity < 1<<28 {
		capacity = 1 << 28
	}
	tssd := ssd.MustNew(ssd.Config{Name: "tssd", CapacityBytes: capacity, PageSize: 4096,
		ReadBW: 3.5e9, WriteBW: 2.7e9})
	dssd := ssd.MustNew(ssd.Config{Name: "dssd", CapacityBytes: capacity, PageSize: 4096,
		ReadBW: 3.5e9, WriteBW: 2.7e9})
	dev := core.NewMemWALDevice()
	w, err := core.NewWAL(dev)
	if err != nil {
		return BenchRecoveryPoint{}, err
	}
	c := cfg
	c.TableSSD, c.DataSSD, c.WAL = tssd, dssd, w
	srv, err := NewServer(c)
	if err != nil {
		return BenchRecoveryPoint{}, err
	}

	gen, err := trace.NewGenerator(wp)
	if err != nil {
		return BenchRecoveryPoint{}, err
	}
	sh := blockcomp.NewShaper(wp.CompressRatio)
	buf := make([]byte, cfg.ChunkSize)
	base := wp.TotalIOs / 2
	if err := driveBenchN(srv, cfg, gen, sh, buf, base); err != nil {
		return BenchRecoveryPoint{}, err
	}
	if err := srv.Checkpoint(); err != nil {
		return BenchRecoveryPoint{}, err
	}
	extra := int(frac * float64(wp.TotalIOs-base))
	if err := driveBenchN(srv, cfg, gen, sh, buf, extra); err != nil {
		return BenchRecoveryPoint{}, err
	}
	if err := srv.Flush(); err != nil {
		return BenchRecoveryPoint{}, err
	}

	dev.Crash()
	w2, err := core.NewWAL(dev)
	if err != nil {
		return BenchRecoveryPoint{}, err
	}
	c.WAL = w2
	pt := BenchRecoveryPoint{WALFraction: frac, WALBytes: w2.Stats().DurableBytes}
	start := time.Now()
	rec, err := core.RecoverServer(c)
	if err != nil {
		return BenchRecoveryPoint{}, err
	}
	pt.RecoveryMillis = float64(time.Since(start).Nanoseconds()) / 1e6
	pt.ReplayedRecords = rec.LastRecovery().ReplayedRecords
	return pt, nil
}

// benchAddr is the address a server in cfg's chunking mode takes for a
// trace's chunk-index LBA: the index itself under fixed chunking; under
// CDC the byte offset (lba * ChunkSize) of the stream segment the write is
// ingested as, so identical content still dedups while extent addresses
// never collide.
func benchAddr(cfg Config, lba uint64) uint64 {
	if cfg.Chunking.Mode == chunk.ModeCDC {
		return lba * uint64(cfg.ChunkSize)
	}
	return lba
}

// driveBenchN consumes up to n requests from gen against s (all of them
// when n is negative).
func driveBenchN(s Store, cfg Config, gen *trace.Generator, sh *blockcomp.Shaper, buf []byte, n int) error {
	for i := 0; i != n; i++ {
		req, ok := gen.Next()
		if !ok {
			return nil
		}
		switch req.Op {
		case trace.OpWrite:
			sh.Block(req.ContentSeed, buf)
			if err := s.Write(benchAddr(cfg, req.LBA), buf); err != nil {
				return fmt.Errorf("fidr: bench write: %w", err)
			}
		case trace.OpRead:
			if _, err := s.Read(benchAddr(cfg, req.LBA)); err != nil && err != core.ErrNotFound {
				return fmt.Errorf("fidr: bench read: %w", err)
			}
		}
	}
	return nil
}

// driveBench streams the workload synchronously and returns the wall
// time including the final flush.
func driveBench(s Store, wp Workload, cfg Config) (time.Duration, error) {
	gen, err := trace.NewGenerator(wp)
	if err != nil {
		return 0, err
	}
	sh := blockcomp.NewShaper(wp.CompressRatio)
	buf := make([]byte, cfg.ChunkSize)
	start := time.Now()
	if err := driveBenchN(s, cfg, gen, sh, buf, -1); err != nil {
		return 0, fmt.Errorf("%s: %w", wp.Name, err)
	}
	if err := s.Flush(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// fillBenchArtifact distills run stats and a metrics snapshot into art.
func fillBenchArtifact(art *BenchArtifact, st Stats, cacheHit float64, wall time.Duration, ms []metrics.Metric) {
	art.WallSeconds = wall.Seconds()
	if art.WallSeconds > 0 {
		art.ThroughputMBps = float64(st.ClientBytes) / 1e6 / art.WallSeconds
	}
	if tot := st.DuplicateChunks + st.UniqueChunks; tot > 0 {
		art.DedupRatio = float64(st.DuplicateChunks) / float64(tot)
	}
	art.ReductionRatio = st.ReductionRatio()
	art.CacheHitRate = cacheHit
	art.StageLatencyNS = map[string]BenchLatency{}
	art.RequestLatencyNS = map[string]BenchLatency{}
	art.DeviceUtilization = map[string]float64{}
	wallNS := float64(wall.Nanoseconds())
	for _, m := range ms {
		// Per-group series repeat the merged unprefixed ones; skip them.
		if strings.HasPrefix(m.Name, "group") {
			continue
		}
		if m.Kind == "counter" {
			switch m.Name {
			case "hostmodel.dram_bytes":
				art.HostDRAMBytes = uint64(m.Value)
			case "hostmodel.dram_payload_bytes":
				art.HostDRAMPayloadBytes = uint64(m.Value)
			case "pcie.p2p_bytes":
				art.PCIeP2PBytes = uint64(m.Value)
			case "pcie.root_bytes":
				art.PCIeRootBytes = uint64(m.Value)
			}
			if dev, ok := strings.CutSuffix(m.Name, ".busy_ns"); ok && wallNS > 0 {
				util := m.Value / wallNS
				if util > 1 {
					util = 1
				}
				art.DeviceUtilization[dev] = util
			}
			continue
		}
		if m.Kind != "hist" || m.Hist.Count == 0 {
			continue
		}
		name, ok := strings.CutSuffix(m.Name, ".ns")
		if !ok {
			// The WAL names its commit-fsync histogram with an
			// underscore suffix; surface it alongside request latencies.
			if m.Name != "wal.fsync_ns" {
				continue
			}
			name = "wal.fsync"
		}
		lat := BenchLatency{
			Count:  m.Hist.Count,
			MeanNS: m.Hist.Mean,
			P50NS:  m.Hist.P50,
			P90NS:  m.Hist.P90,
			P99NS:  m.Hist.P99,
			MaxNS:  m.Hist.Max,
		}
		switch {
		case strings.HasPrefix(name, "stage."):
			art.StageLatencyNS[strings.TrimPrefix(name, "stage.")] = lat
		case strings.HasPrefix(name, "latency.") || strings.HasPrefix(name, "cluster.") ||
			strings.HasPrefix(name, "wal."):
			art.RequestLatencyNS[name] = lat
		}
	}
}

// WriteBenchArtifact writes art to dir/BENCH_<experiment>.json and
// returns the path.
func WriteBenchArtifact(dir string, art BenchArtifact) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+art.Experiment+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
