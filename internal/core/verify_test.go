package core

import (
	"fmt"
	"strings"
	"testing"

	"fidr/internal/blockcomp"
)

func TestVerifyCleanVolume(t *testing.T) {
	for _, arch := range []Arch{Baseline, FIDRFull} {
		s := gcServer(t, arch)
		sh := blockcomp.NewShaper(0.5)
		for i := uint64(0); i < 200; i++ {
			s.Write(i, sh.Make(i%60, 4096))
		}
		rep, err := s.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%v: clean volume failed fsck: %v", arch, rep.Problems)
		}
		if rep.MappingsChecked != 200 || rep.ChunksChecked == 0 {
			t.Fatalf("%v: coverage %d/%d", arch, rep.MappingsChecked, rep.ChunksChecked)
		}
	}
}

func TestVerifyAfterGCAndSnapshots(t *testing.T) {
	s := gcServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 128; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	id, err := s.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 96; i++ {
		s.Write(i, sh.Make(40000+i, 4096))
	}
	s.Flush()
	if _, err := s.Compact(0.2); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-GC+snapshot fsck failed: %v", rep.Problems)
	}
	if err := s.DeleteSnapshot(id); err != nil {
		t.Fatal(err)
	}
	rep, _ = s.Verify()
	if !rep.OK() {
		t.Fatalf("post-snapshot-delete fsck failed: %v", rep.Problems)
	}
}

func TestVerifyDetectsMediaCorruption(t *testing.T) {
	s, _, dssd := faultServer(t)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 100; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	s.Flush()
	// Flip bytes in the first stored container behind the server's back.
	page, err := dssd.Read(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		page[i] ^= 0xFF
	}
	if err := dssd.Write(0, page); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("fsck missed silent data corruption")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "mismatch") || strings.Contains(p, "decompress") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corruption reported oddly: %v", rep.Problems)
	}
}

// TestVerifyIsDeterministic: Verify walks the mappings in address order
// and counts holders per PBN, so two identically built servers see the
// same table-cache and table-SSD traffic from it, snapshots included.
func TestVerifyIsDeterministic(t *testing.T) {
	for _, arch := range []Arch{Baseline, FIDRFull} {
		var runs [2]string
		for r := range runs {
			tssd, dssd := walTestDevices()
			cfg := walTestConfig(arch, tssd, dssd, nil)
			cfg.CacheLines = 16
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := blockcomp.NewShaper(0.5)
			for i := uint64(0); i < 900; i++ {
				if err := s.Write(i%700, sh.Make(i%500, 4096)); err != nil {
					t.Fatal(err)
				}
				if i == 450 {
					if _, err := s.CreateSnapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			rep, err := s.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("%v: %d problems, first: %s", arch, len(rep.Problems), rep.Problems[0])
			}
			runs[r] = fmt.Sprintf("%+v %+v", s.CacheStats(), s.TableSSDStats())
		}
		if runs[0] != runs[1] {
			t.Fatalf("%v: Verify left %s on one server and %s on an identical one", arch, runs[0], runs[1])
		}
	}
}
