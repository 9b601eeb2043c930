package core

import (
	"bytes"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/lbatable"
)

func TestLBASnapshotRoundTrip(t *testing.T) {
	tb, _ := lbatable.New(8192)
	p0, _ := tb.AppendChunk(1, 0, 0, 700)
	tb.AppendChunk(2, 0, 768, 900)
	tb.AppendChunk(3, 1, 0, 500)
	tb.MapLBA(9, p0)
	tb.AppendChunk(2, 1, 512, 400) // overwrite: dead bytes appear
	tb.Relocate(p0, 7, 1024)

	snap := tb.Snapshot()
	got, err := lbatable.RestoreTable(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Chunks() != tb.Chunks() || got.MappedLBAs() != tb.MappedLBAs() {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			got.Chunks(), got.MappedLBAs(), tb.Chunks(), tb.MappedLBAs())
	}
	for _, lba := range []uint64{1, 2, 3, 9} {
		a, err1 := tb.ResolveLBA(lba)
		b, err2 := got.ResolveLBA(lba)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("lba %d resolves differently: %+v vs %+v", lba, a, b)
		}
	}
	for pbn := uint64(0); pbn < tb.Chunks(); pbn++ {
		ra, _ := tb.RefCount(pbn)
		rb, _ := got.RefCount(pbn)
		if ra != rb {
			t.Fatalf("pbn %d refcount %d vs %d", pbn, ra, rb)
		}
	}
	da, db := tb.DeadBytes(), got.DeadBytes()
	if len(da) != len(db) {
		t.Fatalf("dead maps differ: %v vs %v", da, db)
	}
	for c, v := range da {
		if db[c] != v {
			t.Fatalf("dead bytes for container %d: %d vs %d", c, v, db[c])
		}
	}
	if got.NextContainer() != tb.NextContainer() {
		t.Fatal("next container differs")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := lbatable.RestoreTable([]byte("definitely not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	tb, _ := lbatable.New(4096)
	tb.AppendChunk(1, 0, 0, 100)
	snap := tb.Snapshot()
	if _, err := lbatable.RestoreTable(snap[:len(snap)-4]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	for _, m := range testModes {
		for _, arch := range []Arch{Baseline, FIDRFull} {
			cfg := DefaultConfig(arch)
			cfg.ContainerSize = 64 << 10
			cfg.Chunking = m.chunking
			s1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 300; i++ {
				if err := s1.Write(m.addr(i), m.payload(i%120)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s1.Checkpoint(); err != nil {
				t.Fatalf("%s %v: checkpoint: %v", m.name, arch, err)
			}

			// Recover over the same devices.
			rcfg := cfg
			rcfg.TableSSD = s1.tableSSD
			rcfg.DataSSD = s1.dataSSD
			s2, err := RecoverServer(rcfg)
			if err != nil {
				t.Fatalf("%s %v: recover: %v", m.name, arch, err)
			}
			// All data readable, bit-exact, and the volume passes fsck.
			for i := uint64(0); i < 300; i++ {
				if err := m.check(s2.Read, i, i%120); err != nil {
					t.Fatalf("%s %v: recovered: %v", m.name, arch, err)
				}
			}
			if rep, err := s2.Verify(); err != nil || !rep.OK() {
				t.Fatalf("%s %v: recovered volume: %v %v", m.name, arch, err, rep.Problems)
			}
			// Dedup continuity: rewriting known content must not store new
			// chunks (the Hash-PBN table survived on the table SSD).
			uniqueBefore := s2.Stats().UniqueChunks
			for i := uint64(500); i < 520; i++ {
				if err := s2.Write(m.addr(i), m.payload(i%120)); err != nil {
					t.Fatal(err)
				}
			}
			s2.Flush()
			if got := s2.Stats().UniqueChunks; got != uniqueBefore {
				t.Fatalf("%s %v: recovered server re-stored %d duplicate chunks", m.name, arch, got-uniqueBefore)
			}
			// New unique content continues the container sequence safely.
			if err := s2.Write(m.addr(999), m.payload(777777)); err != nil {
				t.Fatal(err)
			}
			s2.Flush()
			if err := m.check(s2.Read, 999, 777777); err != nil {
				t.Fatalf("%s %v: post-recovery write broken: %v", m.name, arch, err)
			}
		}
	}
}

func TestRecoverRequiresDevices(t *testing.T) {
	if _, err := RecoverServer(DefaultConfig(FIDRFull)); err == nil {
		t.Fatal("recovery without devices accepted")
	}
}

func TestRecoverWithoutCheckpointFails(t *testing.T) {
	cfg := DefaultConfig(FIDRFull)
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.TableSSD = s1.tableSSD
	rcfg.DataSSD = s1.dataSSD
	if _, err := RecoverServer(rcfg); err == nil {
		t.Fatal("recovered from a device with no checkpoint")
	}
}

func TestCheckpointAfterCompaction(t *testing.T) {
	cfg := DefaultConfig(FIDRFull)
	cfg.ContainerSize = 64 << 10
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 128; i++ {
		s1.Write(i, sh.Make(i, 4096))
	}
	s1.Flush()
	for i := uint64(0); i < 96; i++ {
		s1.Write(i, sh.Make(50000+i, 4096))
	}
	s1.Flush()
	if _, err := s1.Compact(0.2); err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.TableSSD = s1.tableSSD
	rcfg.DataSSD = s1.dataSSD
	s2, err := RecoverServer(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Relocated chunks must resolve and read correctly post-recovery.
	for i := uint64(0); i < 128; i++ {
		want := sh.Make(i, 4096)
		if i < 96 {
			want = sh.Make(50000+i, 4096)
		}
		got, err := s2.Read(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("LBA %d wrong after compaction + recovery: %v", i, err)
		}
	}
}
