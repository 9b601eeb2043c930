package main

import (
	"bytes"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"fidr"
	"fidr/internal/proto"
)

// TestSigtermWithIdleClientE2E: a durable daemon that gets SIGTERM while
// a client sits connected with nothing to say still closes its listener,
// flushes, checkpoints and exits — and a -recover restart serves every
// chunk it had acknowledged.
func TestSigtermWithIdleClientE2E(t *testing.T) {
	dir := t.TempDir()
	fidrdBin, _ := buildBinaries(t, dir)
	flags := []string{
		"-data-file", filepath.Join(dir, "data.img"),
		"-table-file", filepath.Join(dir, "table.img"),
		"-wal-file", filepath.Join(dir, "wal.log"),
	}
	const n = 200
	chunk := func(i int) []byte { return fidr.MakeChunk(uint64(i%150), 0.5) }

	addr, _, cmd := startDaemonWith(t, fidrdBin, flags...)
	idle, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	for i := 0; i < n; i++ {
		if err := idle.WriteChunk(uint64(i), chunk(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	// idle stays open across the shutdown. The wait is a liveness bound
	// only: before the listener tracked its connections it never ended.
	cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("fidrd exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("fidrd still running 30s after SIGTERM with an idle client attached")
	}

	addr, _, _ = startDaemonWith(t, fidrdBin, append(flags, "-recover")...)
	c, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		got, err := c.ReadChunk(uint64(i))
		if err != nil {
			t.Fatalf("read %d after recovery: %v", i, err)
		}
		if !bytes.Equal(got, chunk(i)) {
			t.Fatalf("LBA %d differs after recovery", i)
		}
	}
}
