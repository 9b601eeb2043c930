package core

import (
	"testing"

	"fidr/internal/blockcomp"
)

// dupBatchAllocCeiling is the measured heap allocations of one warmed,
// all-duplicate 64-chunk batch through Server.Write on one hash lane:
// lanes.Run's busy-time slice and the closure HashAll hands it. It may
// only be lowered.
const dupBatchAllocCeiling = 2

var raceEnabled bool // set by race_test.go under -race

// TestDuplicateBatchAllocCeiling: once the buffers a batch needs exist —
// NIC chunk buffers, hash and flag scratch, claim maps, table-cache lines,
// LBA-table slots — a batch of duplicates reuses all of them.
func TestDuplicateBatchAllocCeiling(t *testing.T) {
	cfg := DefaultConfig(FIDRFull)
	cfg.HashLanes, cfg.CompressLanes = 1, 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := blockcomp.NewShaper(0.5)
	chunks := make([][]byte, cfg.BatchChunks)
	for i := range chunks {
		chunks[i] = sh.Make(uint64(i)+1, cfg.ChunkSize)
	}
	batch := func() {
		for i, c := range chunks {
			if err := s.Write(uint64(i), c); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch() // unique: admits the content
	batch() // duplicate: first remap of every LBA
	before := s.Stats()
	n := testing.AllocsPerRun(10, batch)
	after := s.Stats()
	if after.UniqueChunks != before.UniqueChunks || after.DuplicateChunks-before.DuplicateChunks != 11*uint64(len(chunks)) {
		t.Fatalf("measured batches were not all-duplicate: %+v -> %+v", before, after)
	}
	if raceEnabled {
		t.Skipf("%v allocs under the race detector; the ceiling is for uninstrumented builds", n)
	}
	if n > dupBatchAllocCeiling {
		t.Fatalf("all-duplicate batch: %v allocs, ceiling %d", n, dupBatchAllocCeiling)
	}
	if n < dupBatchAllocCeiling {
		t.Logf("all-duplicate batch: %v allocs — lower dupBatchAllocCeiling (%d)", n, dupBatchAllocCeiling)
	}
}
