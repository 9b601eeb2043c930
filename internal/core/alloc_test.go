package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"fidr/internal/blockcomp"
)

// dupBatchAllocCeilings are the measured heap allocations of one warmed,
// all-duplicate 64-chunk batch through Server.Write. They may only be
// lowered. At one lane nothing forks. At two hash and two compress lanes
// the NIC's lane group starts two goroutines per batch and the `go`
// statements are all that is new — they allocate nothing: each runs a
// closure the group built once, and the runtime reuses the exited
// goroutines. (The parent measured 2 and 7: a busy slice and a function
// closure per fork-join, an escaped WaitGroup and a closure per goroutine.)
var dupBatchAllocCeilings = []struct {
	hashLanes, compressLanes int
	ceiling                  float64
}{
	{1, 1, 0},
	{2, 2, 0},
}

var raceEnabled bool // set by race_test.go under -race

// TestDuplicateBatchAllocCeiling: once the buffers a batch needs exist —
// NIC generations and chunk buffers, hash and flag scratch, claim maps,
// table-cache lines, LBA-table slots, the lane groups' closures — a batch
// of duplicates reuses all of them, whether its commit runs under the next
// batch's hash (a write-only stream, as here) or not.
func TestDuplicateBatchAllocCeiling(t *testing.T) {
	for _, row := range dupBatchAllocCeilings {
		cfg := DefaultConfig(FIDRFull)
		cfg.HashLanes, cfg.CompressLanes = row.hashLanes, row.compressLanes
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
		batch() // every NIC generation in circulation has held a batch
		before := s.Stats()
		n := testing.AllocsPerRun(10, batch)
		after := s.Stats()
		if after.UniqueChunks != before.UniqueChunks || after.DuplicateChunks-before.DuplicateChunks != 11*uint64(len(chunks)) {
			t.Fatalf("lanes %d/%d: measured batches were not all-duplicate: %+v -> %+v",
				row.hashLanes, row.compressLanes, before, after)
		}
		if raceEnabled {
			t.Logf("lanes %d/%d: %v allocs under the race detector; the ceiling is for uninstrumented builds",
				row.hashLanes, row.compressLanes, n)
			continue
		}
		if n > row.ceiling {
			t.Errorf("lanes %d/%d: all-duplicate batch: %v allocs, ceiling %v", row.hashLanes, row.compressLanes, n, row.ceiling)
		}
	}
}

// BenchmarkWriteBatch is the two-second check of the tipping path: ns and
// allocs per 64-chunk batch through Server.Write, all-unique and
// all-duplicate, at one lane (everything inline) and two (arrival hashers,
// and each commit runs under the next batch's hash). The read-interleaved
// row writes the duplicate batch with a read of a committed LBA — the one
// the next write overwrites — after every write: every batch is then
// committed by the write that tips it, so the row measures that tip on the
// traffic the overlap skips. The server is built outside the timer, and
// rebuilt there every few hundred unique batches so the in-memory SSD
// stays small.
func BenchmarkWriteBatch(b *testing.B) {
	const rebuildEvery = 256
	for _, kind := range []string{"unique", "duplicate", "read-interleaved"} {
		for _, lanes := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/lanes%d", kind, lanes), func(b *testing.B) {
				cfg := DefaultConfig(FIDRFull)
				cfg.HashLanes, cfg.CompressLanes = lanes, lanes
				sh := blockcomp.NewShaper(0.5)
				chunks := make([][]byte, cfg.BatchChunks)
				for i := range chunks {
					chunks[i] = sh.Make(uint64(i)+1, cfg.ChunkSize)
				}
				var s *Server
				batch := func(stamp uint64, reads bool) {
					for i, c := range chunks {
						if kind == "unique" { // new content at the cost of one store
							binary.LittleEndian.PutUint64(c, stamp<<8|uint64(i))
						}
						if err := s.Write(uint64(i), c); err != nil {
							b.Fatal(err)
						}
						if reads {
							if _, err := s.Read(uint64(i+1) % uint64(len(chunks))); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				b.SetBytes(int64(cfg.BatchChunks * cfg.ChunkSize))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if i%rebuildEvery == 0 {
						b.StopTimer()
						var err error
						if s, err = New(cfg); err != nil {
							b.Fatal(err)
						}
						batch(0, false) // admits the content the other rows rewrite
						batch(0, false)
						b.StartTimer()
					}
					batch(uint64(i)+1, kind == "read-interleaved")
				}
			})
		}
	}
}
