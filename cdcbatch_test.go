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

// cdcBatchConfig is a small-extent CDC volume.
func cdcBatchConfig() fidr.Config {
	cfg := fidr.DefaultConfig(fidr.FIDRFull)
	cfg.Chunking = chunk.Config{Min: 1024, Avg: 4096, Max: 16384}
	return cfg
}

// TestCDCBatchOpsRefused: the wire's batch ops count chunk-size blocks at
// consecutive LBAs (`fidrcli put` / `get` advance their address a chunk at
// a time), and a content-defined volume addresses bytes. The listener
// must refuse them with the instructive error — the regression is a
// success that carries fewer bytes than were written (each 4-KB batch
// piece re-cut by the chunker at a chunk-index address). Single segments
// and extents keep working.
func TestCDCBatchOpsRefused(t *testing.T) {
	cfg := cdcBatchConfig()
	const chunks = 32
	data := make([]byte, chunks*cfg.ChunkSize)
	rand.New(rand.NewSource(1)).Read(data)

	refused := func(t *testing.T, what string, got []byte, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s on a CDC volume succeeded (returned %d bytes; the batch is %d)", what, len(got), len(data))
		}
		if !strings.Contains(err.Error(), "CDC") || !strings.Contains(err.Error(), "4096-byte chunks") {
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
}

// TestCDCReadRangeRoundTrip: in process a range read walks a CDC volume's
// consecutive extents, so segments written at byte offsets i x ChunkSize
// come back as one range — through AsyncStore over a bare server, and over
// a cluster the async front unwraps into its groups' servers.
func TestCDCReadRangeRoundTrip(t *testing.T) {
	cfg := cdcBatchConfig()
	const chunks = 32
	data := make([]byte, chunks*cfg.ChunkSize)
	rand.New(rand.NewSource(1)).Read(data)
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
			for i := 0; i < chunks; i++ {
				off := i * cfg.ChunkSize
				if err := st.Write(uint64(off), data[off:off+cfg.ChunkSize]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := st.ReadRange(0, chunks)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("AsyncStore.ReadRange: %d bytes of %d, err %v", len(got), len(data), err)
			}
		})
	}
}

// TestClusterRefusesCDCAcrossGroups: groups shard by address before any
// chunker runs, so a CDC segment's interior extents would be stored on a
// group the cluster never reads them back from. NewCluster refuses the
// configuration the way a node does.
func TestClusterRefusesCDCAcrossGroups(t *testing.T) {
	_, err := fidr.NewCluster(cdcBatchConfig(), 2)
	if err == nil || !strings.Contains(err.Error(), "-chunker=cdc") {
		t.Fatalf("NewCluster(cdc, 2): %v, want the -chunker=cdc refusal", err)
	}
	if _, err := fidr.NewCluster(cdcBatchConfig(), 1); err != nil {
		t.Fatalf("NewCluster(cdc, 1): %v", err)
	}
}
