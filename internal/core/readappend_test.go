package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"fidr/internal/blockcomp"
)

// get is the lookup the read-cache tests use: a copy of the chunk.
func (c *readCache) get(lba uint64) ([]byte, bool) { return c.appendTo(nil, lba) }

// readSource is a server whose reads of LBA 1 are all served by one
// source of the read path, and the counter that source advances.
type readSource struct {
	name   string
	server func(t *testing.T) *Server
	served func(s *Server) uint64
}

// readSources covers every place a read can be served from: the write
// buffer (NIC in FIDR, host batch buffer in the baseline), the engine's
// open container, the §8 read cache, and the data SSD with LZ decoding or
// with a raw-stored chunk passing through.
func readSources() []readSource {
	compressible := blockcomp.NewShaper(0.5).Make(1, 4096)
	incompressible := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(incompressible)
	build := func(arch Arch, cache int, chunk []byte, settle func(*Server) error) func(t *testing.T) *Server {
		return func(t *testing.T) *Server {
			t.Helper()
			cfg := DefaultConfig(arch)
			cfg.ReadCacheChunks = cache
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Write(1, chunk); err != nil {
				t.Fatal(err)
			}
			if settle != nil {
				if err := settle(s); err != nil {
					t.Fatal(err)
				}
			}
			return s
		}
	}
	// Filling the batch tips it, and the second full batch's tip commits
	// it to the open container; a flush seals that container onto the
	// data SSD.
	commit := func(s *Server) error {
		sh := blockcomp.NewShaper(0.5)
		for lba := uint64(2); lba <= uint64(2*s.cfg.BatchChunks); lba++ {
			if err := s.Write(lba, sh.Make(lba, 4096)); err != nil {
				return err
			}
		}
		return nil
	}
	flush := (*Server).Flush
	cached := func(s *Server) error {
		if err := s.Flush(); err != nil {
			return err
		}
		_, err := s.Read(1) // fills the cache
		return err
	}
	ssdReads := func(s *Server) uint64 { return s.DataSSDStats().ReadIOs }
	return []readSource{
		{"nic-buffer", build(FIDRFull, 0, compressible, nil), func(s *Server) uint64 { return s.Stats().NICReadHits }},
		{"open-container", build(FIDRFull, 0, compressible, commit), func(s *Server) uint64 { return s.Stats().PendingReads }},
		{"read-cache", build(FIDRFull, 16, compressible, cached), func(s *Server) uint64 { return s.Stats().ReadCacheHits }},
		{"ssd-lz", build(FIDRFull, 0, compressible, flush), ssdReads},
		{"ssd-raw", build(FIDRFull, 0, incompressible, flush), ssdReads},
		{"baseline-buffer", build(Baseline, 0, compressible, nil), func(s *Server) uint64 { return s.Stats().ReadCacheHits }},
		{"baseline-ssd", build(Baseline, 0, compressible, flush), ssdReads},
	}
}

// heapPerCall returns the heap allocations and bytes of one call to fn,
// averaged over runs after one warm-up call and truncated to integers,
// with GOMAXPROCS at 1: testing.AllocsPerRun, counting bytes too.
func heapPerCall(runs int, fn func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs),
		(after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestReadAllocsPerSource: at every source, Server.Read allocates exactly
// one chunk-sized slice, the one it returns (what an in-process caller
// keeps, so read-mixed's allocation rows stay where they were), and
// ReadAppend into a buffer with room allocates nothing.
func TestReadAllocsPerSource(t *testing.T) {
	const runs = 100
	for _, src := range readSources() {
		t.Run(src.name, func(t *testing.T) {
			s := src.server(t)
			want, err := s.Read(1)
			if err != nil {
				t.Fatal(err)
			}
			from := src.served(s)
			read := func() {
				if got, err := s.Read(1); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Read: %d bytes, err %v", len(got), err)
				}
			}
			allocs, heap := heapPerCall(runs, read)

			buf := make([]byte, 0, 2*len(want))
			prefix := []byte("header")
			appendRead := func() {
				got, err := s.ReadAppend(append(buf, prefix...), 1, nil)
				if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("ReadAppend: %d bytes, err %v", len(got), err)
				}
			}
			appendAllocs := testing.AllocsPerRun(runs, appendRead)
			if n := src.served(s) - from; n < 2*runs {
				t.Fatalf("source served %d of the %d+ measured reads", n, 2*runs)
			}
			if raceEnabled {
				t.Skipf("%v / %v allocs under the race detector; the pins are for uninstrumented builds", allocs, appendAllocs)
			}
			if allocs != 1 || heap != uint64(len(want)) {
				t.Errorf("Read: %v allocs, %v bytes per read, want 1 and %d (the returned chunk)", allocs, heap, len(want))
			}
			if appendAllocs != 0 {
				t.Errorf("ReadAppend into a buffer with room: %v allocs per read, want 0", appendAllocs)
			}
		})
	}
}

// TestReadRangeGrowsAsChunksResolve: a range far past the written data
// fails at its first missing chunk with ErrNotFound; nothing is sized
// for the whole range up front.
func TestReadRangeGrowsAsChunksResolve(t *testing.T) {
	s := newServer(t, FIDRFull)
	chunk := blockcomp.NewShaper(0.5).Make(1, 4096)
	if err := s.Write(0, chunk); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRange(0, 1<<34); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadRange(0, 1<<34) on a one-chunk volume: %v, want ErrNotFound", err)
	}
	got, err := s.ReadRangeAppend([]byte("hdr"), 0, 1, nil)
	if err != nil || string(got[:3]) != "hdr" || !bytes.Equal(got[3:], chunk) {
		t.Fatalf("ReadRangeAppend: %d bytes, err %v", len(got), err)
	}
}

// TestReadRangeAllocs: an in-process ReadRange of written chunks
// allocates one slice, the range it returns, sized before the first read
// and never regrown.
func TestReadRangeAllocs(t *testing.T) {
	const n = 32
	s := newServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	for lba := uint64(0); lba < n; lba++ {
		if err := s.Write(lba, sh.Make(lba, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if got, err := s.ReadRange(0, n); err != nil || len(got) != n*4096 {
			t.Fatalf("ReadRange: %d bytes, err %v", len(got), err)
		}
	}
	allocs, heap := heapPerCall(20, read)
	if raceEnabled {
		t.Skipf("%v allocs under the race detector; the pin is for uninstrumented builds", allocs)
	}
	if allocs != 1 || heap != n*4096 {
		t.Errorf("%d-chunk ReadRange: %v allocs, %v bytes, want 1 and %d", n, allocs, heap, n*4096)
	}
}
