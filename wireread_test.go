package fidr_test

import (
	"bytes"
	"errors"
	"testing"

	"fidr"
	"fidr/internal/core"
	"fidr/internal/proto"
)

// wireSource is a server whose reads of LBA 1 are all served by one
// source of the read path, and the counter that source advances.
type wireSource struct {
	name   string
	cache  int                      // read-cache chunks
	settle func(*fidr.Server) error // after LBA 1 is written
	served func(*fidr.Server) uint64
}

// TestWireReadAllocs: over the real stack — Server, Async, AsyncStore,
// the protocol listener and a Client on loopback — a chunk read at every
// source allocates exactly one slice, the payload the client returns:
// the server decodes or copies the chunk into the connection's frame
// buffer. AsyncStore.ReadAppend into a buffer with room allocates
// nothing. No clock is read.
func TestWireReadAllocs(t *testing.T) {
	const runs = 200
	// Filling the batch tips it, and the second full batch's tip commits
	// it to the open container; a flush seals that container onto the
	// data SSD, and a first read after it fills the read cache.
	commit := func(s *fidr.Server) error {
		for lba := uint64(2); lba <= 2*64; lba++ {
			if err := s.Write(lba, fidr.MakeChunk(lba, 0.5)); err != nil {
				return err
			}
		}
		return nil
	}
	cached := func(s *fidr.Server) error {
		if err := s.Flush(); err != nil {
			return err
		}
		_, err := s.Read(1)
		return err
	}
	for _, src := range []wireSource{
		{"nic-buffer", 0, nil, func(s *fidr.Server) uint64 { return s.Stats().NICReadHits }},
		{"open-container", 0, commit, func(s *fidr.Server) uint64 { return s.Stats().PendingReads }},
		{"read-cache", 16, cached, func(s *fidr.Server) uint64 { return s.Stats().ReadCacheHits }},
		{"ssd-lz", 0, (*fidr.Server).Flush, func(s *fidr.Server) uint64 { return s.DataSSDStats().ReadIOs }},
	} {
		t.Run(src.name, func(t *testing.T) {
			cfg := fidr.DefaultConfig(fidr.FIDRFull)
			cfg.HashLanes, cfg.CompressLanes = 1, 1
			cfg.ReadCacheChunks = src.cache
			srv, err := fidr.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := fidr.MakeChunk(1, 0.5)
			if err := srv.Write(1, want); err != nil {
				t.Fatal(err)
			}
			if src.settle != nil {
				if err := src.settle(srv); err != nil {
					t.Fatal(err)
				}
			}
			a, err := fidr.NewAsync(srv, 8)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			as, err := fidr.NewAsyncStore(a, cfg.ChunkSize)
			if err != nil {
				t.Fatal(err)
			}
			l, err := proto.Serve(as, "127.0.0.1:0", proto.WithConcurrentStore())
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			c, err := proto.Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			from := src.served(srv)
			wire := testing.AllocsPerRun(runs, func() {
				if got, err := c.ReadChunk(1); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("ReadChunk: %d bytes, err %v", len(got), err)
				}
			})
			buf := make([]byte, 0, 2*len(want))
			direct := testing.AllocsPerRun(runs, func() {
				if got, err := as.ReadAppend(buf, 1, nil); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("ReadAppend: %d bytes, err %v", len(got), err)
				}
			})
			if n := src.served(srv) - from; n < 2*runs {
				t.Fatalf("source served %d of the %d+ measured reads", n, 2*runs)
			}
			if raceEnabled {
				t.Skipf("%v / %v allocs under the race detector; the pins are for uninstrumented builds", wire, direct)
			}
			if wire != 1 {
				t.Errorf("wire ReadChunk: %v allocs, want 1 (the payload the client returns)", wire)
			}
			if direct != 0 {
				t.Errorf("AsyncStore.ReadAppend into a buffer with room: %v allocs, want 0", direct)
			}
		})
	}
}

// TestReadRangePastDataFails: a range far past the written data fails at
// its first missing chunk with ErrNotFound on both front ends, rather
// than sizing the whole range before the first read.
func TestReadRangePastDataFails(t *testing.T) {
	srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Write(0, fidr.MakeChunk(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	a, err := fidr.NewAsync(srv, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	as, err := fidr.NewAsyncStore(a, fidr.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]proto.Store{"Server": srv, "AsyncStore": as} {
		if _, err := st.ReadRange(0, 1<<34); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("%s.ReadRange(0, 1<<34) on a one-chunk volume: %v, want ErrNotFound", name, err)
		}
	}
}
