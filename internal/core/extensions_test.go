package core

import (
	"bytes"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/hostmodel"
)

func TestReadOffloadRemovesIOStackCPU(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	run := func(offload bool) hostmodel.Snapshot {
		cfg := DefaultConfig(FIDRFull)
		cfg.OffloadDataSSDQueues = offload
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 256; i++ {
			s.Write(i, sh.Make(i, 4096))
		}
		s.Flush()
		for i := uint64(0); i < 256; i++ {
			if _, err := s.Read(i); err != nil {
				t.Fatal(err)
			}
		}
		return s.Ledger().Snapshot()
	}
	withStack := run(false)
	without := run(true)
	if withStack.CPUNanos[hostmodel.CompDataSSDIO] == 0 {
		t.Fatal("no data-SSD stack CPU without offload")
	}
	// With queues offloaded, only container writes charge the stack.
	if without.CPUNanos[hostmodel.CompDataSSDIO] >= withStack.CPUNanos[hostmodel.CompDataSSDIO]/2 {
		t.Fatalf("offload did not reduce IO-stack CPU: %d vs %d",
			without.CPUNanos[hostmodel.CompDataSSDIO], withStack.CPUNanos[hostmodel.CompDataSSDIO])
	}
	if without.TotalCPUNanos() >= withStack.TotalCPUNanos() {
		t.Fatal("offload did not reduce total CPU")
	}
}

func TestReadCacheServesSkewedReads(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	cfg := DefaultConfig(FIDRFull)
	cfg.ReadCacheChunks = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 256; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	s.Flush()
	// Skewed reads: hammer 16 hot LBAs.
	ssdReadsBefore := s.DataSSDStats().ReadIOs
	for rep := 0; rep < 20; rep++ {
		for i := uint64(0); i < 16; i++ {
			got, err := s.Read(i)
			if err != nil || !bytes.Equal(got, sh.Make(i, 4096)) {
				t.Fatalf("hot read %d corrupted", i)
			}
		}
	}
	st := s.Stats()
	if st.ReadCacheHits < 16*19 {
		t.Fatalf("read cache hits = %d, want ~%d", st.ReadCacheHits, 16*19)
	}
	if hr := s.ReadCacheHitRate(); hr < 0.9 {
		t.Fatalf("hit rate %.3f on hot set", hr)
	}
	// The SSD saw only the cold misses.
	ssdReads := s.DataSSDStats().ReadIOs - ssdReadsBefore
	if ssdReads > 20 {
		t.Fatalf("SSD absorbed %d reads despite the cache", ssdReads)
	}
}

func TestReadCacheInvalidatedOnWrite(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	cfg := DefaultConfig(FIDRFull)
	cfg.ReadCacheChunks = 16
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1 := sh.Make(1, 4096)
	v2 := sh.Make(2, 4096)
	s.Write(7, v1)
	s.Flush()
	if _, err := s.Read(7); err != nil { // populates the cache
		t.Fatal(err)
	}
	s.Write(7, v2) // must invalidate
	s.Flush()
	got, err := s.Read(7)
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatal("stale read-cache entry served after overwrite")
	}
}

func TestReadCacheDisabledByDefault(t *testing.T) {
	s := newServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	s.Write(1, sh.Make(1, 4096))
	s.Flush()
	s.Read(1)
	s.Read(1)
	if s.Stats().ReadCacheHits != 0 || s.ReadCacheHitRate() != 0 {
		t.Fatal("disabled read cache recorded hits")
	}
}

func TestReadCacheEviction(t *testing.T) {
	c := newReadCache(2)
	c.put(1, []byte{1})
	c.put(2, []byte{2})
	c.put(3, []byte{3}) // evicts 1
	if _, ok := c.get(1); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.get(2); !ok {
		t.Fatal("entry 2 lost")
	}
	// Update in place does not grow the cache.
	c.put(2, []byte{22})
	if v, _ := c.get(2); v[0] != 22 {
		t.Fatal("update not applied")
	}
	c.invalidate(3)
	if _, ok := c.get(3); ok {
		t.Fatal("invalidated entry served")
	}
	// Returned data is a copy.
	v, _ := c.get(2)
	v[0] = 99
	v2, _ := c.get(2)
	if v2[0] == 99 {
		t.Fatal("cache aliases returned slices")
	}
}

// TestReadCacheReusesBuffers: once the cache is full, a put that evicts
// hands the LRU entry's element and buffer to the new chunk and allocates
// nothing, and a re-put reuses its entry's buffer, reading back right
// whether the chunk grew or shrank.
func TestReadCacheReusesBuffers(t *testing.T) {
	const capacity = 4
	c := newReadCache(capacity)
	chunk := bytes.Repeat([]byte{7}, 4096)
	for lba := uint64(0); lba < capacity; lba++ {
		c.put(lba, chunk)
	}
	lba := uint64(capacity)
	allocs := testing.AllocsPerRun(1000, func() {
		c.put(lba, chunk)
		lba++
	})
	if allocs != 0 && !raceEnabled {
		t.Fatalf("an evicting put allocates %.1f objects, want 0", allocs)
	}
	if c.order.Len() != capacity || len(c.index) != capacity {
		t.Fatalf("cache holds %d entries, %d indexed; want %d", c.order.Len(), len(c.index), capacity)
	}
	if _, ok := c.get(lba - capacity - 1); ok {
		t.Fatal("an evicted LBA still hits")
	}
	for _, size := range []int{1000, 4096, 16384, 3} {
		want := bytes.Repeat([]byte{byte(size)}, size)
		c.put(lba-1, want)
		if got, ok := c.get(lba - 1); !ok || !bytes.Equal(got, want) {
			t.Fatalf("re-put of a %d-byte chunk read back %d bytes (hit %v)", size, len(got), ok)
		}
	}
}
