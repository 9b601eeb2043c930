package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"fidr/internal/blockcomp"
)

// batchAllocCeilings are the measured heap allocations of one warmed
// 64-chunk batch through Server.Write. They may only be lowered. At one
// lane nothing starts. At two hash and two compress lanes the server's
// pool keeps a helper resident across batches; a start, when the helper
// has idled out, runs the entry function the pool built once and reuses
// an exited goroutine, so it allocates nothing either. unique is how many
// chunks of each batch carry new content: 0 is all-duplicate, 37 of 64 is
// write-l's mix, which posts compress batches a helper claims items of.
// reads follows every write with a ReadAppend, into a reused buffer, of
// the LBA the next write overwrites: the held batch answers it.
var batchAllocCeilings = []struct {
	hashLanes, compressLanes int
	unique                   int
	reads                    bool
	ceiling                  float64
}{
	{1, 1, 0, false, 0},
	{2, 2, 0, false, 0},
	{1, 1, 0, true, 0},
	{2, 2, 0, true, 0},
	{1, 1, 37, false, 0},
	{2, 2, 37, false, 0},
}

var raceEnabled bool // set by race_test.go under -race

// TestDuplicateBatchAllocCeiling: once the buffers a batch needs exist —
// both NIC buffers and their chunk arenas, hash and flag scratch, claim maps,
// table-cache lines, LBA-table slots, the pool's jobs and entry function —
// a batch of duplicates reuses all of them, with or without a read after
// every write.
func TestDuplicateBatchAllocCeiling(t *testing.T) {
	for _, row := range batchAllocCeilings {
		if row.unique == 0 {
			checkBatchAllocs(t, row.hashLanes, row.compressLanes, row.unique, row.reads, row.ceiling)
		}
	}
}

// TestUniqueHeavyBatchAllocCeiling: the same holds for a batch that is
// mostly new content, where every commit compresses and packs a unique
// batch across the pool and containers seal and recycle their buffers.
func TestUniqueHeavyBatchAllocCeiling(t *testing.T) {
	for _, row := range batchAllocCeilings {
		if row.unique > 0 {
			checkBatchAllocs(t, row.hashLanes, row.compressLanes, row.unique, row.reads, row.ceiling)
		}
	}
}

// checkBatchAllocs measures a warmed batch whose first unique chunks (of
// every seven, the first four) are new content, with a read after every
// write if reads is set, and compares it with the ceiling.
func checkBatchAllocs(t *testing.T, hashLanes, compressLanes, unique int, reads bool, ceiling float64) {
	t.Helper()
	cfg := DefaultConfig(FIDRFull)
	cfg.HashLanes, cfg.CompressLanes = hashLanes, compressLanes
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := blockcomp.NewShaper(0.5)
	chunks := make([][]byte, cfg.BatchChunks)
	fresh := make([]bool, len(chunks))
	for i, n := 0, 0; i < len(chunks); i++ {
		chunks[i] = sh.Make(uint64(i)+1, cfg.ChunkSize)
		if fresh[i] = i%7 < 4 && n < unique; fresh[i] {
			n++
		}
	}
	stamp := uint64(0)
	buf := make([]byte, 0, cfg.ChunkSize)
	batch := func() {
		stamp++
		for i, c := range chunks {
			if fresh[i] { // new content at the cost of one store
				binary.LittleEndian.PutUint64(c, stamp<<8|uint64(i))
			}
			if err := s.Write(uint64(i), c); err != nil {
				t.Fatal(err)
			}
			if !reads {
				continue
			}
			// In the first batch the next LBA is not written yet.
			if _, err := s.ReadAppend(buf, uint64(i+1)%uint64(len(chunks)), nil); err != nil && !(stamp == 1 && err == ErrNotFound) {
				t.Fatal(err)
			}
		}
	}
	// Warm up until both NIC buffers have held a batch
	// and, with new content, containers have sealed and handed their
	// buffers back.
	warm := 3
	if unique > 0 {
		warm = 64
	}
	for range warm {
		batch()
	}
	before := s.Stats()
	n := testing.AllocsPerRun(10, batch)
	after := s.Stats()
	if after.UniqueChunks-before.UniqueChunks != 11*uint64(unique) ||
		after.DuplicateChunks-before.DuplicateChunks != 11*uint64(len(chunks)-unique) {
		t.Fatalf("lanes %d/%d: measured batches were not %d of %d unique: %+v -> %+v",
			hashLanes, compressLanes, unique, len(chunks), before, after)
	}
	if raceEnabled {
		t.Logf("lanes %d/%d, %d unique, reads %v: %v allocs under the race detector; the ceiling is for uninstrumented builds",
			hashLanes, compressLanes, unique, reads, n)
		return
	}
	if n > ceiling {
		t.Errorf("lanes %d/%d, %d of %d chunks unique, reads %v: %v allocs per batch, ceiling %v",
			hashLanes, compressLanes, unique, len(chunks), reads, n, ceiling)
	}
}

// BenchmarkWriteBatch is the two-second check of the tipping path: ns and
// allocs per 64-chunk batch through Server.Write — all-unique,
// unique-heavy (37 of 64 chunks new, write-l's mix) and all-duplicate —
// at one lane (everything inline) and two (a resident pool helper hashes
// as chunks arrive and writes the sealed containers, and each commit runs
// under the next batch's hash). The read-interleaved row writes the duplicate
// batch with a read of the LBA the next write overwrites after every
// write: the held batch answers it, and each commit still runs under the
// next batch's hash, so the row measures the tip with reads beside it. The
// server is built outside the timer, and rebuilt there
// every few hundred batches so the in-memory SSD stays small.
func BenchmarkWriteBatch(b *testing.B) {
	const rebuildEvery = 256
	for _, kind := range []string{"unique", "unique-heavy", "duplicate", "read-interleaved"} {
		for _, lanes := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/lanes%d", kind, lanes), func(b *testing.B) {
				cfg := DefaultConfig(FIDRFull)
				cfg.HashLanes, cfg.CompressLanes = lanes, lanes
				sh := blockcomp.NewShaper(0.5)
				chunks := make([][]byte, cfg.BatchChunks)
				for i := range chunks {
					chunks[i] = sh.Make(uint64(i)+1, cfg.ChunkSize)
				}
				fresh := func(i int) bool {
					return kind == "unique" || kind == "unique-heavy" && i%7 < 4
				}
				var s *Server
				batch := func(stamp uint64, reads bool) {
					for i, c := range chunks {
						if fresh(i) { // new content at the cost of one store
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
