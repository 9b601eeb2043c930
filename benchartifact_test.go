package fidr_test

import (
	"encoding/json"
	"os"
	"testing"

	"fidr"
	"fidr/internal/chunk"
)

func TestBenchArtifactSingle(t *testing.T) {
	art, err := fidr.RunBenchExperiment("writeh", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != fidr.BenchSchema || art.Experiment != "writeh" {
		t.Fatalf("schema/experiment = %q/%q", art.Schema, art.Experiment)
	}
	if art.ThroughputMBps <= 0 || art.WallSeconds <= 0 {
		t.Fatalf("throughput %v over %vs", art.ThroughputMBps, art.WallSeconds)
	}
	if art.DedupRatio <= 0.5 || art.ReductionRatio <= 0 || art.ReductionRatio >= 1 {
		t.Fatalf("dedup %v reduction %v; Write-H should reduce heavily", art.DedupRatio, art.ReductionRatio)
	}
	for _, stage := range []string{"hash", "dedup_lookup", "nic_buffer"} {
		lat, ok := art.StageLatencyNS[stage]
		if !ok || lat.Count == 0 {
			t.Errorf("stage %q missing from artifact", stage)
			continue
		}
		if lat.P50NS <= 0 || lat.P90NS < lat.P50NS || lat.P99NS < lat.P90NS {
			t.Errorf("stage %q percentiles inconsistent: %+v", stage, lat)
		}
	}
	if lat, ok := art.RequestLatencyNS["latency.write_ack"]; !ok || lat.Count == 0 {
		t.Error("latency.write_ack missing from artifact")
	}
	if len(art.Shards) != 0 {
		t.Error("single-server artifact carries shard data")
	}
	for _, dev := range []string{"nic", "engine", "ssd.data-ssd"} {
		util, ok := art.DeviceUtilization[dev]
		if !ok {
			t.Errorf("device %q missing from utilization map", dev)
			continue
		}
		if util <= 0 || util > 1 {
			t.Errorf("device %q utilization %v outside (0, 1]", dev, util)
		}
	}
	// A FIDR write-only workload keeps client payload out of host DRAM
	// entirely while metadata still flows — the paper's core claim as a
	// bench artifact.
	if art.HostDRAMBytes == 0 {
		t.Error("host DRAM total is zero; metadata always flows through the host")
	}
	if art.HostDRAMPayloadBytes != 0 {
		t.Errorf("FIDR write run moved %d payload bytes through host DRAM, want 0", art.HostDRAMPayloadBytes)
	}
	if art.PCIeP2PBytes == 0 {
		t.Error("FIDR run recorded no P2P bytes")
	}
}

func TestBenchArtifactCluster(t *testing.T) {
	art, err := fidr.RunBenchExperiment("cluster4", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if art.Groups != 4 || len(art.Shards) != 4 {
		t.Fatalf("groups/shards = %d/%d", art.Groups, len(art.Shards))
	}
	var shares float64
	for _, sh := range art.Shards {
		shares += sh.WriteShare
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("shard write shares sum to %v", shares)
	}
	if art.CrossShardDupChunks == 0 {
		t.Error("cluster run tracked no cross-shard duplicates")
	}
	if _, ok := art.RequestLatencyNS["cluster.write"]; !ok {
		t.Error("cluster.write latency missing")
	}
}

func TestBenchArtifactRoundTrip(t *testing.T) {
	art, err := fidr.RunBenchExperiment("writel", 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := fidr.WriteBenchArtifact(dir, art)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back fidr.BenchArtifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if back.Experiment != "writel" || back.Schema != fidr.BenchSchema {
		t.Fatalf("round-trip lost identity: %+v", back)
	}
	if back.ThroughputMBps != art.ThroughputMBps || len(back.StageLatencyNS) != len(art.StageLatencyNS) {
		t.Fatal("round-trip lost measurements")
	}
	if _, err := fidr.RunBenchExperiment("nosuch", 100); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBenchArtifactLaneSweep(t *testing.T) {
	art, err := fidr.RunBenchExperiment("lanes", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.LanePoints) != 4 {
		t.Fatalf("%d lane points, want 4", len(art.LanePoints))
	}
	wantLanes := []int{1, 2, 4, 8}
	for i, p := range art.LanePoints {
		if p.Lanes != wantLanes[i] {
			t.Errorf("point %d lanes = %d, want %d", i, p.Lanes, wantLanes[i])
		}
		if p.ThroughputMBps <= 0 || p.WallSeconds <= 0 {
			t.Errorf("point %d has no measurement: %+v", i, p)
		}
	}
	if art.HashLanes != 8 || art.CompressLanes != 8 {
		t.Errorf("artifact body lanes = %d/%d, want 8/8", art.HashLanes, art.CompressLanes)
	}
	if art.LaneSpeedup <= 0 {
		t.Errorf("lane speedup %v", art.LaneSpeedup)
	}
	// Determinism across the sweep: reduction and dedup are lane-blind.
	if art.DedupRatio <= 0 || art.ReductionRatio <= 0 {
		t.Errorf("dedup %v reduction %v", art.DedupRatio, art.ReductionRatio)
	}
}

func TestBenchArtifactArchival(t *testing.T) {
	art, err := fidr.RunBenchExperiment("archival", 3000)
	if err != nil {
		t.Fatal(err)
	}
	if art.Workload != "Archival" {
		t.Fatalf("workload = %q, want Archival", art.Workload)
	}
	if art.WALAppendedRecords == 0 || art.WALDurableBytes <= 0 {
		t.Fatalf("WAL totals missing: %d records, %d bytes",
			art.WALAppendedRecords, art.WALDurableBytes)
	}
	if lat, ok := art.RequestLatencyNS["wal.fsync"]; !ok || lat.Count == 0 {
		t.Error("wal.fsync latency missing from artifact")
	}
	if len(art.RecoveryPoints) != 4 {
		t.Fatalf("%d recovery points, want 4", len(art.RecoveryPoints))
	}
	prevBytes := int64(-1)
	for i, p := range art.RecoveryPoints {
		if p.WALFraction <= 0 || p.WALFraction > 1 {
			t.Errorf("point %d fraction %v outside (0, 1]", i, p.WALFraction)
		}
		if p.WALBytes <= prevBytes {
			t.Errorf("point %d WAL length %d not longer than previous %d",
				i, p.WALBytes, prevBytes)
		}
		prevBytes = p.WALBytes
		if p.ReplayedRecords <= 0 {
			t.Errorf("point %d replayed no records", i)
		}
		if p.RecoveryMillis <= 0 {
			t.Errorf("point %d recovery time %vms", i, p.RecoveryMillis)
		}
	}
	// Longer logs replay more records: the sweep is the recovery-time
	// vs. WAL-length curve.
	first, last := art.RecoveryPoints[0], art.RecoveryPoints[3]
	if last.ReplayedRecords <= first.ReplayedRecords {
		t.Errorf("replayed records did not grow with WAL length: %d -> %d",
			first.ReplayedRecords, last.ReplayedRecords)
	}
}

func TestBenchArtifactRecordsLanes(t *testing.T) {
	art, err := fidr.RunBenchExperiment("writel", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if art.HashLanes < 1 || art.CompressLanes < 1 {
		t.Fatalf("lane counts %d/%d not recorded", art.HashLanes, art.CompressLanes)
	}
}

func TestBenchArtifactCapacity(t *testing.T) {
	art, err := fidr.RunBenchExperiment("capacity", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if art.Experiment != "capacity" || art.Workload != "Write-M" {
		t.Fatalf("experiment/workload = %q/%q", art.Experiment, art.Workload)
	}
	c := art.Capacity
	if c == nil {
		t.Fatal("capacity section missing from artifact")
	}
	// The attribution identity holds exactly in the committed artifact:
	// the report is taken after the final flush, so there is no slack.
	if got := c.DedupSavedBytes + c.CompressionSavedBytes + c.StoredBytes; got != c.LogicalWriteBytes {
		t.Errorf("attribution unbalanced: %d + %d + %d != %d",
			c.DedupSavedBytes, c.CompressionSavedBytes, c.StoredBytes, c.LogicalWriteBytes)
	}
	if c.DedupSavedBytes == 0 || c.CompressionSavedBytes == 0 {
		t.Errorf("Write-M should save via both dedup and compression: %+v", c)
	}
	if c.ReductionRatio <= 1 {
		t.Errorf("reduction ratio %v on a reducible stream", c.ReductionRatio)
	}
	// The overwrite phase stranded garbage and the GC pass reclaimed it.
	if c.GarbageBeforeGCBytes == 0 {
		t.Error("overwrite phase stranded no garbage")
	}
	if c.GarbageAfterGCBytes >= c.GarbageBeforeGCBytes {
		t.Errorf("GC did not shrink garbage: %d -> %d",
			c.GarbageBeforeGCBytes, c.GarbageAfterGCBytes)
	}
	if c.ContainersCompacted == 0 || c.ReclaimedDeadBytes == 0 {
		t.Errorf("GC pass left no trace: %+v", c)
	}
	if got := c.GarbageBeforeGCBytes - c.GarbageAfterGCBytes; got != c.ReclaimedDeadBytes {
		t.Errorf("ledger drop %d != reclaimed dead bytes %d", got, c.ReclaimedDeadBytes)
	}
	if c.GCThreshold != 0.25 {
		t.Errorf("gc threshold %v, want 0.25", c.GCThreshold)
	}
	if c.HeatmapBuckets == 0 {
		t.Error("heatmap has no occupied buckets")
	}
	if c.GCRunEvents != 1 {
		t.Errorf("journal recorded %d gc_run events, want exactly 1", c.GCRunEvents)
	}
	// The body still carries the normal throughput/latency measurements.
	if art.ThroughputMBps <= 0 || art.WallSeconds <= 0 {
		t.Fatalf("throughput %v over %vs", art.ThroughputMBps, art.WallSeconds)
	}
}

func TestBenchArtifactCDC(t *testing.T) {
	art, err := fidr.RunBenchExperiment("cdc", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if art.Experiment != "cdc" || art.Workload != "Write-M" {
		t.Fatalf("experiment/workload = %q/%q", art.Experiment, art.Workload)
	}
	if art.Chunker != "cdc" {
		t.Fatalf("chunker = %q, want cdc", art.Chunker)
	}
	c := art.CDC
	if c == nil {
		t.Fatal("cdc section missing from artifact")
	}
	if c.MinChunk <= 0 || c.AvgChunk < c.MinChunk || c.MaxChunk < c.AvgChunk {
		t.Fatalf("chunk size bounds inconsistent: %d/%d/%d", c.MinChunk, c.AvgChunk, c.MaxChunk)
	}
	if c.ChunkerFastGBps <= 0 || c.ChunkerReferenceGBps <= 0 || c.ChunkerRollingGBps <= 0 {
		t.Fatalf("chunker rates missing: fast %v ref %v rolling %v",
			c.ChunkerFastGBps, c.ChunkerReferenceGBps, c.ChunkerRollingGBps)
	}
	// At full bench scale the acceptance bar is 5x; the test asserts the
	// fast path wins at all so a shared noisy CI box cannot flake it.
	if c.ChunkerSpeedup <= 1 {
		t.Errorf("fast chunker speedup %v over the reference scalar, want > 1", c.ChunkerSpeedup)
	}
	if c.FixedThroughputMBps <= 0 || c.CDCThroughputMBps <= 0 {
		t.Errorf("end-to-end throughputs: fixed %v cdc %v", c.FixedThroughputMBps, c.CDCThroughputMBps)
	}
	// The whole point: on insertion-shifted backup generations CDC
	// resynchronizes where fixed-block chunking cannot.
	if c.DedupRatioDelta <= 0 {
		t.Errorf("dedup ratio delta %v (cdc %v vs fixed %v), want positive",
			c.DedupRatioDelta, c.CDCDedupRatio, c.FixedDedupRatio)
	}
	if c.MeanChunkBytes < float64(c.MinChunk) || c.MeanChunkBytes > float64(c.MaxChunk) {
		t.Errorf("mean chunk %v bytes outside [%d, %d]", c.MeanChunkBytes, c.MinChunk, c.MaxChunk)
	}
	if !c.LedgerBalanced {
		t.Error("reduction-attribution ledger unbalanced under variable-size chunks")
	}
	// The body carries the CDC run's measurements.
	if art.ThroughputMBps <= 0 || art.WallSeconds <= 0 {
		t.Fatalf("throughput %v over %vs", art.ThroughputMBps, art.WallSeconds)
	}
}

func TestBenchChunkerOverride(t *testing.T) {
	// Any single-server experiment runs end to end with -chunker=cdc:
	// variable chunks flow through NIC buffering, dedup, and container
	// packing, and the extent addressing keeps reads resolvable.
	art, err := fidr.RunBenchExperimentChunker("writem", 1500, chunk.Config{Mode: chunk.ModeCDC})
	if err != nil {
		t.Fatal(err)
	}
	if art.Chunker != "cdc" {
		t.Fatalf("chunker = %q, want cdc", art.Chunker)
	}
	if art.ThroughputMBps <= 0 || art.DedupRatio <= 0 {
		t.Fatalf("throughput %v dedup %v", art.ThroughputMBps, art.DedupRatio)
	}
	// The WAL-, checkpoint- and GC-dependent experiments run under CDC
	// too: archival crashes and recovers a CDC volume at every sweep
	// point, capacity balances the ledger and compacts variable-size
	// chunks.
	art, err = fidr.RunBenchExperimentChunker("archival", 500, chunk.Config{Mode: chunk.ModeCDC})
	if err != nil {
		t.Fatalf("archival under CDC: %v", err)
	}
	if art.Chunker != "cdc" || art.WALAppendedRecords == 0 || len(art.RecoveryPoints) != 4 {
		t.Fatalf("archival under CDC: chunker %q, %d WAL records, %d recovery points",
			art.Chunker, art.WALAppendedRecords, len(art.RecoveryPoints))
	}
	if last := art.RecoveryPoints[3]; last.ReplayedRecords == 0 {
		t.Fatalf("archival under CDC replayed nothing at the full-log point: %+v", last)
	}
	art, err = fidr.RunBenchExperimentChunker("capacity", 1500, chunk.Config{Mode: chunk.ModeCDC})
	if err != nil {
		t.Fatalf("capacity under CDC: %v", err)
	}
	if c := art.Capacity; c == nil || c.LogicalWriteBytes != c.DedupSavedBytes+c.CompressionSavedBytes+c.StoredBytes {
		t.Fatalf("capacity under CDC: ledger %+v", c)
	}
}

func TestBenchArtifactTracing(t *testing.T) {
	art, err := fidr.RunBenchExperiment("tracing", 1500)
	if err != nil {
		t.Fatal(err)
	}
	if art.Experiment != "tracing" || art.Workload != "Write-H" {
		t.Fatalf("experiment/workload = %q/%q", art.Experiment, art.Workload)
	}
	if len(art.TracePoints) != 4 {
		t.Fatalf("got %d trace points, want 4", len(art.TracePoints))
	}
	want := map[string]bool{"Write-H": true, "Write-M": true, "Write-L": true, "Read-Mixed": true}
	for _, pt := range art.TracePoints {
		if !want[pt.Workload] {
			t.Errorf("unexpected trace point workload %q", pt.Workload)
		}
		delete(want, pt.Workload)
		if pt.OffMBps <= 0 || pt.OnMBps <= 0 {
			t.Errorf("%s: throughputs %v off / %v on, want both positive", pt.Workload, pt.OffMBps, pt.OnMBps)
		}
	}
	if len(want) != 0 {
		t.Errorf("workloads missing from trace points: %v", want)
	}
	// The artifact body comes from the traced Write-H pass.
	if art.ThroughputMBps <= 0 || art.WallSeconds <= 0 {
		t.Fatalf("throughput %v over %vs", art.ThroughputMBps, art.WallSeconds)
	}
	// At test scale the runs are short and noisy, so the acceptance bar
	// gets headroom; the committed artifact at full scale is what the
	// <= ~5% criterion judges.
	if art.TraceWriteOverheadPct > 25 {
		t.Errorf("sampled tracing write overhead %.1f%%, want small", art.TraceWriteOverheadPct)
	}
}
