package fidr_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"fidr"
	"fidr/internal/chunk"
	"fidr/internal/proto"
)

// TestCDCBatchOpsRefused: ReadRange and the wire's batch ops walk
// consecutive addresses, which name consecutive chunks only under fixed
// chunking. On a content-defined volume every front end must refuse them
// with the instructive error — the regression is a success that carries
// fewer bytes than were written (each 4-KB batch piece re-cut by the
// chunker, each read returning one first extent). Single segments and
// extents keep working.
func TestCDCBatchOpsRefused(t *testing.T) {
	cfg := fidr.DefaultConfig(fidr.FIDRFull)
	cfg.Chunking = chunk.Config{Mode: chunk.ModeCDC, Min: 1024, Avg: 4096, Max: 16384}
	const chunks = 32
	data := make([]byte, chunks*cfg.ChunkSize)
	rand.New(rand.NewSource(1)).Read(data)

	// pieces writes the batch the way the listener used to split it: one
	// chunk-size piece per consecutive address, each a legal CDC segment.
	pieces := func(t *testing.T, write func(lba uint64, data []byte) error) {
		t.Helper()
		for i := 0; i < chunks; i++ {
			if err := write(uint64(i), data[i*cfg.ChunkSize:(i+1)*cfg.ChunkSize]); err != nil {
				t.Fatal(err)
			}
		}
	}
	refused := func(t *testing.T, what string, got []byte, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s on a CDC volume succeeded (returned %d bytes; the batch is %d)", what, len(got), len(data))
		}
		if !strings.Contains(err.Error(), "CDC") {
			t.Fatalf("%s: error does not say why: %v", what, err)
		}
	}

	t.Run("wire", func(t *testing.T) {
		srv, err := fidr.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := fidr.NewAsync(srv, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		st, err := fidr.NewAsyncStore(a, cfg.ChunkSize)
		if err != nil {
			t.Fatal(err)
		}
		l, err := proto.Serve(st, "127.0.0.1:0", proto.WithConcurrentStore())
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		c, err := proto.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// What `fidrcli put` / `get` send.
		refused(t, "WriteBatch", nil, c.WriteBatch(0, data))
		got, err := c.ReadBatch(0, chunks)
		refused(t, "ReadBatch", got, err)
		_, err = c.WriteBatchTraced(0, data)
		refused(t, "traced WriteBatch", nil, err)
		got, _, err = c.ReadBatchTraced(0, chunks)
		refused(t, "traced ReadBatch", got, err)

		// One segment at a byte offset, then its first extent.
		if err := c.WriteChunk(0, data); err != nil {
			t.Fatalf("segment write: %v", err)
		}
		ext, err := c.ReadChunk(0)
		if err != nil {
			t.Fatalf("extent read: %v", err)
		}
		if len(ext) == 0 || !bytes.HasPrefix(data, ext) {
			t.Fatalf("first extent (%d bytes) is not a prefix of the segment", len(ext))
		}
	})

	// AsyncStore over a bare server, and over a cluster the async front
	// unwraps into its groups' servers.
	for _, name := range []string{"asyncstore", "cluster"} {
		t.Run(name, func(t *testing.T) {
			var backend fidr.Store
			var err error
			if name == "cluster" {
				backend, err = fidr.NewCluster(cfg, 1)
			} else {
				backend, err = fidr.NewServer(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			a, err := fidr.NewAsync(backend, 8)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			st := blocking(t, a)
			pieces(t, st.Write)
			got, err := st.ReadRange(0, chunks)
			refused(t, "AsyncStore.ReadRange", got, err)
		})
	}
}
