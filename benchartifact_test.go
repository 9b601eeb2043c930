package fidr_test

import (
	"testing"

	"fidr/internal/experiments"
)

// The three extension studies' shapes, asserted on their typed rows.
// Every check is a count or a ratio of counts; nothing here reads a
// clock. Row 0 is fixed 4-KB chunking, row 1 content-defined.

func TestBenchArtifactCDC(t *testing.T) {
	rows, _, err := experiments.CDC(experiments.Scale{IOs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Chunker != "fixed" || rows[1].Chunker != "cdc" {
		t.Fatalf("rows = %+v, want fixed then cdc", rows)
	}
	fixed, cdc := rows[0], rows[1]
	// The whole point: on insertion-shifted backup generations CDC
	// resynchronizes where fixed-block chunking cannot.
	if delta := cdc.DedupRatio - fixed.DedupRatio; delta <= 0 {
		t.Errorf("dedup ratio delta %v (cdc %v vs fixed %v), want positive", delta, cdc.DedupRatio, fixed.DedupRatio)
	}
	for _, r := range rows {
		if r.MinChunk <= 0 || r.MaxChunk < r.MinChunk {
			t.Errorf("%s: chunk size bounds %d-%d", r.Chunker, r.MinChunk, r.MaxChunk)
		}
		if r.MeanChunkBytes < float64(r.MinChunk) || r.MeanChunkBytes > float64(r.MaxChunk) {
			t.Errorf("%s: mean chunk %v bytes outside [%d, %d]", r.Chunker, r.MeanChunkBytes, r.MinChunk, r.MaxChunk)
		}
		if !r.LedgerBalanced {
			t.Errorf("%s: reduction-attribution ledger unbalanced", r.Chunker)
		}
	}
}

// checkCapacityRow asserts one chunking mode's ledger and GC pass.
func checkCapacityRow(t *testing.T, c experiments.CapacityRow) {
	t.Helper()
	// The report is taken after the final flush, so there is no slack.
	if !c.Balanced() {
		t.Errorf("%s: attribution unbalanced: %d + %d + %d != %d", c.Chunker,
			c.DedupSavedBytes, c.CompressionSavedBytes, c.StoredBytes, c.LogicalWriteBytes)
	}
	if c.DedupSavedBytes == 0 || c.CompressionSavedBytes == 0 {
		t.Errorf("%s: Write-M should save via both dedup and compression: %+v", c.Chunker, c)
	}
	// The overwrite phase stranded garbage and the GC pass reclaimed it.
	if c.GarbageBeforeGC == 0 {
		t.Errorf("%s: overwrite phase stranded no garbage", c.Chunker)
	}
	if c.GarbageAfterGC >= c.GarbageBeforeGC {
		t.Errorf("%s: GC did not shrink garbage: %d -> %d", c.Chunker, c.GarbageBeforeGC, c.GarbageAfterGC)
	}
	if c.ContainersCompacted == 0 || c.ReclaimedDeadBytes == 0 {
		t.Errorf("%s: GC pass left no trace: %+v", c.Chunker, c)
	}
	if got := c.GarbageBeforeGC - c.GarbageAfterGC; got != c.ReclaimedDeadBytes {
		t.Errorf("%s: ledger drop %d != reclaimed dead bytes %d", c.Chunker, got, c.ReclaimedDeadBytes)
	}
	if c.GCRunEvents != 1 {
		t.Errorf("%s: journal recorded %d gc_run events, want exactly 1", c.Chunker, c.GCRunEvents)
	}
}

// checkArchivalRow asserts one chunking mode's ingest totals and
// recovery sweep.
func checkArchivalRow(t *testing.T, a experiments.ArchivalRow) {
	t.Helper()
	if a.AppendedRecords == 0 || a.DurableBytes <= 0 {
		t.Fatalf("%s: WAL totals missing: %d records, %d bytes", a.Chunker, a.AppendedRecords, a.DurableBytes)
	}
	prevBytes := int64(-1)
	for i, p := range a.Sweep {
		if p.LogFraction <= 0 || p.LogFraction > 1 {
			t.Errorf("%s point %d: fraction %v outside (0, 1]", a.Chunker, i, p.LogFraction)
		}
		if p.WALBytes <= prevBytes {
			t.Errorf("%s point %d: WAL length %d not longer than previous %d", a.Chunker, i, p.WALBytes, prevBytes)
		}
		prevBytes = p.WALBytes
		if p.ReplayedRecords <= 0 {
			t.Errorf("%s point %d: replayed no records", a.Chunker, i)
		}
	}
	// Longer logs replay more records: the sweep is the recovery-work
	// vs. WAL-length curve.
	if first, last := a.Sweep[0], a.Sweep[len(a.Sweep)-1]; last.ReplayedRecords <= first.ReplayedRecords {
		t.Errorf("%s: replayed records did not grow with WAL length: %d -> %d",
			a.Chunker, first.ReplayedRecords, last.ReplayedRecords)
	}
}

func TestBenchArtifactCapacity(t *testing.T) {
	rows, _, err := experiments.Capacity(experiments.Scale{IOs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Chunker != "fixed" {
		t.Fatalf("rows = %+v, want fixed then cdc", rows)
	}
	checkCapacityRow(t, rows[0])
}

func TestBenchArtifactArchival(t *testing.T) {
	rows, _, err := experiments.Archival(experiments.Scale{IOs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Chunker != "fixed" {
		t.Fatalf("rows = %+v, want fixed then cdc", rows)
	}
	checkArchivalRow(t, rows[0])
}

// TestBenchChunkerOverride covers the cdc rows: the WAL-, checkpoint-
// and GC-dependent studies run under content-defined chunking too —
// archival crashes and recovers a CDC volume at every sweep point,
// capacity balances the ledger and compacts variable-size chunks.
func TestBenchChunkerOverride(t *testing.T) {
	caps, _, err := experiments.Capacity(experiments.Scale{IOs: 1500})
	if err != nil {
		t.Fatalf("capacity: %v", err)
	}
	if caps[1].Chunker != "cdc" {
		t.Fatalf("capacity row 1 chunker = %q, want cdc", caps[1].Chunker)
	}
	checkCapacityRow(t, caps[1])
	arch, _, err := experiments.Archival(experiments.Scale{IOs: 1500})
	if err != nil {
		t.Fatalf("archival: %v", err)
	}
	if arch[1].Chunker != "cdc" {
		t.Fatalf("archival row 1 chunker = %q, want cdc", arch[1].Chunker)
	}
	checkArchivalRow(t, arch[1])
}
