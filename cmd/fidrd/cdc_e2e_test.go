package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"fidr"
	"fidr/internal/chunk"
	"fidr/internal/proto"
)

// TestCDCDurableE2E is the composition the CDC gates used to forbid, on
// the real binary: a -chunker=cdc daemon over file-backed volumes and a
// write-ahead log takes stream segments over the wire, checkpoints some
// of them, is killed without warning, and comes back with -recover. Every
// checkpointed extent must read back bit-exact; the segments written after
// the checkpoint survive as far as the log was committed, and whatever
// survives is bit-exact too.
func TestCDCDurableE2E(t *testing.T) {
	dir := t.TempDir()
	fidrdBin, _ := buildBinaries(t, dir)
	flags := []string{
		"-chunker", "cdc", "-cdc-min", "1024", "-cdc-avg", "4096", "-cdc-max", "16384",
		"-container-size", "65536", "-batch", "16",
		"-data-file", filepath.Join(dir, "data.img"),
		"-table-file", filepath.Join(dir, "table.img"),
		"-wal-file", filepath.Join(dir, "wal.log"),
	}
	// Segment g is ~120 KB at byte offset g<<32; neighbours share blocks.
	segment := func(g uint64) []byte {
		var seg []byte
		for i := uint64(0); i < 30; i++ {
			seg = append(seg, fidr.MakeChunk(g*20+i, 0.5)...)
		}
		return seg[:len(seg)-int(g)*111]
	}
	cdc := chunk.NewCDC(1024, 4096, 16384)
	// readBack reads every extent of segments [from, to) and returns how
	// many were found; a found extent must match, a missing one is allowed
	// only when mayBeLost.
	readBack := func(c *proto.Client, from, to uint64, mayBeLost bool) (found int) {
		for g := from; g < to; g++ {
			seg := segment(g)
			prev := 0
			for _, b := range cdc.Boundaries(seg) {
				got, err := c.ReadChunk(g<<32 + uint64(prev))
				switch {
				case err == nil && bytes.Equal(got, seg[prev:b]):
					found++
				case err == nil:
					t.Fatalf("segment %d extent +%d: read %d bytes that are not the %d written", g, prev, len(got), b-prev)
				case mayBeLost && strings.Contains(err.Error(), "not found"):
				default:
					t.Fatalf("segment %d extent +%d: %v", g, prev, err)
				}
				prev = b
			}
		}
		return found
	}

	addr, _, cmd := startDaemonWith(t, fidrdBin, flags...)
	c, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const checkpointed, total = 4, 16
	for g := uint64(0); g < total; g++ {
		if err := c.WriteChunk(g<<32, segment(g)); err != nil {
			t.Fatalf("write segment %d: %v", g, err)
		}
		if g == checkpointed-1 {
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := readBack(c, 0, total, false); n == 0 {
		t.Fatal("no extents before the crash")
	}
	c.Close()
	cmd.Process.Signal(syscall.SIGKILL)
	cmd.Wait()

	addr, maddr, _ := startDaemonWith(t, fidrdBin, append(flags, "-recover")...)
	replayed := int64(0)
	for _, ev := range eventsScrape(t, maddr, "") {
		if ev.Type == "recovery" {
			replayed = ev.Fields["replayed_records"]
		}
	}
	if replayed == 0 {
		t.Fatal("recovery replayed no WAL records: the post-checkpoint segments never reached the log")
	}
	c, err = proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	readBack(c, 0, checkpointed, false)
	if n := readBack(c, checkpointed, total, true); n == 0 {
		t.Fatal("no post-checkpoint extent survived the crash, yet the log was replayed")
	}
	// The recovered daemon keeps chunking new segments the same way.
	if err := c.WriteChunk(total<<32, segment(total)); err != nil {
		t.Fatal(err)
	}
	readBack(c, total, total+1, false)
}
