package core

import (
	"bytes"
	"errors"
	"testing"

	"fidr/internal/blockcomp"
)

func TestSnapshotBasics(t *testing.T) {
	s := gcServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 64; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	id, err := s.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshots(); len(got) != 1 || got[0] != id {
		t.Fatalf("snapshots = %v", got)
	}
	// Snapshot reads match the state at creation.
	for i := uint64(0); i < 64; i++ {
		got, err := s.ReadSnapshot(id, i)
		if err != nil || !bytes.Equal(got, sh.Make(i, 4096)) {
			t.Fatalf("snapshot read %d: %v", i, err)
		}
	}
	if _, err := s.ReadSnapshot(id, 999); err != ErrNotFound {
		t.Fatalf("unmapped snapshot read: %v", err)
	}
	if _, err := s.ReadSnapshot(SnapshotID(404), 1); err == nil {
		t.Fatal("unknown snapshot accepted")
	}
}

func TestSnapshotSurvivesOverwritesAndGC(t *testing.T) {
	s := gcServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 96; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	id, err := s.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite everything, then compact aggressively.
	for i := uint64(0); i < 96; i++ {
		s.Write(i, sh.Make(70000+i, 4096))
	}
	s.Flush()
	if _, err := s.Compact(0); err != nil {
		t.Fatal(err)
	}
	// Live volume sees new data.
	got, err := s.Read(5)
	if err != nil || !bytes.Equal(got, sh.Make(70005, 4096)) {
		t.Fatal("live read wrong after snapshot + overwrite")
	}
	// Snapshot still sees the original data — its references kept the
	// chunks alive through compaction.
	for i := uint64(0); i < 96; i++ {
		got, err := s.ReadSnapshot(id, i)
		if err != nil {
			t.Fatalf("snapshot read %d after GC: %v", i, err)
		}
		if !bytes.Equal(got, sh.Make(i, 4096)) {
			t.Fatalf("snapshot chunk %d corrupted by GC", i)
		}
	}
}

func TestDeleteSnapshotFreesSpace(t *testing.T) {
	s := gcServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 64; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	id, _ := s.CreateSnapshot()
	for i := uint64(0); i < 64; i++ {
		s.Write(i, sh.Make(90000+i, 4096))
	}
	s.Flush()
	// With the snapshot alive, old chunks are referenced: no garbage
	// from them.
	withSnap := s.Garbage().TotalDeadBytes
	if err := s.DeleteSnapshot(id); err != nil {
		t.Fatal(err)
	}
	after := s.Garbage().TotalDeadBytes
	if after <= withSnap {
		t.Fatalf("deleting the snapshot freed nothing: %d -> %d", withSnap, after)
	}
	if err := s.DeleteSnapshot(id); err == nil {
		t.Fatal("double delete accepted")
	}
	if len(s.Snapshots()) != 0 {
		t.Fatal("snapshot list not empty")
	}
}

func TestMultipleSnapshotsIndependent(t *testing.T) {
	s := gcServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	s.Write(1, sh.Make(100, 4096))
	id1, _ := s.CreateSnapshot()
	s.Write(1, sh.Make(200, 4096))
	id2, _ := s.CreateSnapshot()
	s.Write(1, sh.Make(300, 4096))
	s.Flush()

	v1, err := s.ReadSnapshot(id1, 1)
	if err != nil || !bytes.Equal(v1, sh.Make(100, 4096)) {
		t.Fatal("snapshot 1 wrong")
	}
	v2, err := s.ReadSnapshot(id2, 1)
	if err != nil || !bytes.Equal(v2, sh.Make(200, 4096)) {
		t.Fatal("snapshot 2 wrong")
	}
	live, err := s.Read(1)
	if err != nil || !bytes.Equal(live, sh.Make(300, 4096)) {
		t.Fatal("live wrong")
	}
}

func TestSnapshotDedupEfficiency(t *testing.T) {
	// A snapshot must not store any data: unique chunk count is flat.
	s := gcServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 50; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	s.Flush()
	before := s.Stats().UniqueChunks
	if _, err := s.CreateSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().UniqueChunks; got != before {
		t.Fatalf("snapshot stored %d chunks", got-before)
	}
}

// TestSnapshotVerbsOnCrashedServer: after an injected crash ReadSnapshot
// and DeleteSnapshot refuse like every other verb, whether or not the NIC
// holds a batch — a dead process neither reads nor drops a snapshot.
func TestSnapshotVerbsOnCrashedServer(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	for _, tc := range []struct {
		name  string
		stage CrashStage
		crash func(*Server) error // fires the armed crash
		held  bool
	}{
		// The crash fires in a tip, after the join: its batch stays held.
		{"batch held", CrashPostHash, func(s *Server) error {
			for i := uint64(0); i < 64; i++ {
				if err := s.Write(1000+i, sh.Make(1000+i, 4096)); err != nil {
					return err
				}
			}
			return nil
		}, true},
		// Flush commits everything before its container write fails.
		{"nothing held", CrashMidContainerFlush, (*Server).Flush, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := gcServer(t, FIDRFull)
			for i := uint64(0); i < 64; i++ {
				if err := s.Write(i, sh.Make(i, 4096)); err != nil {
					t.Fatal(err)
				}
			}
			id, err := s.CreateSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 8; i++ {
				if err := s.Write(i, sh.Make(500+i, 4096)); err != nil {
					t.Fatal(err)
				}
			}
			s.ArmCrash(tc.stage, 1)
			if err := tc.crash(s); !errors.Is(err, ErrCrashInjected) {
				t.Fatalf("crash did not fire: %v", err)
			}
			if s.wbuf.Held() != tc.held {
				t.Fatalf("held %v after the crash, want %v", s.wbuf.Held(), tc.held)
			}
			if got, err := s.ReadSnapshot(id, 0); !errors.Is(err, ErrCrashInjected) {
				t.Fatalf("ReadSnapshot on a crashed server: %d bytes, err %v", len(got), err)
			}
			if err := s.DeleteSnapshot(id); !errors.Is(err, ErrCrashInjected) {
				t.Fatalf("DeleteSnapshot on a crashed server: %v", err)
			}
			if got := s.Snapshots(); len(got) != 1 || got[0] != id {
				t.Fatalf("snapshots after the refused delete: %v", got)
			}
		})
	}
}
