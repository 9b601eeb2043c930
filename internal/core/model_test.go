package core

import (
	"math/rand"
	"testing"
)

// TestModelBasedServer drives the whole server with a long random
// operation sequence — writes, overwrites, reads, flushes, snapshots,
// snapshot deletes, compactions, checkpoint/recovery — against a simple
// reference model (maps of seeds). Every read must match the model and
// every fsck must pass. This is the correctness backstop for feature
// interactions no targeted test enumerates, and it runs in both chunking
// modes on both architectures: under CDC every "LBA" below is a slot
// holding a multi-KB stream segment, read back extent by extent.
func TestModelBasedServer(t *testing.T) {
	const (
		ops      = 4000
		lbaSpace = 300
		seeds    = 150
	)
	for _, m := range testModes {
		for _, arch := range []Arch{Baseline, FIDRFull} {
			t.Run(m.name+"/"+arch.String(), func(t *testing.T) { modelBasedRun(t, m, arch, ops, lbaSpace, seeds) })
		}
	}
}

func modelBasedRun(t *testing.T, m testMode, arch Arch, ops, lbaSpace, seeds int) {
	rng := rand.New(rand.NewSource(0xF1D4 + int64(arch)))
	cfg := DefaultConfig(arch)
	cfg.ContainerSize = 64 << 10
	cfg.BatchChunks = 16
	cfg.Chunking = m.chunking
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	live := make(map[uint64]uint64) // lba -> seed
	snaps := make(map[SnapshotID]map[uint64]uint64)

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 50: // write (often duplicate content)
			lba := uint64(rng.Intn(lbaSpace))
			seed := uint64(rng.Intn(seeds))
			if err := srv.Write(m.addr(lba), m.payload(seed)); err != nil {
				t.Fatalf("%v op %d: write: %v", arch, op, err)
			}
			live[lba] = seed
		case r < 75: // read
			lba := uint64(rng.Intn(lbaSpace))
			want, ok := live[lba]
			if !ok {
				if _, err := srv.Read(m.addr(lba)); err != ErrNotFound {
					t.Fatalf("%v op %d: read of unwritten %d: %v", arch, op, lba, err)
				}
				continue
			}
			if err := m.check(srv.Read, lba, want); err != nil {
				t.Fatalf("%v op %d: read: %v", arch, op, err)
			}
		case r < 80: // flush
			if err := srv.Flush(); err != nil {
				t.Fatalf("%v op %d: flush: %v", arch, op, err)
			}
		case r < 85: // snapshot
			if len(snaps) >= 3 {
				continue
			}
			id, err := srv.CreateSnapshot()
			if err != nil {
				t.Fatalf("%v op %d: snapshot: %v", arch, op, err)
			}
			cp := make(map[uint64]uint64, len(live))
			for k, v := range live {
				cp[k] = v
			}
			snaps[id] = cp
		case r < 90: // read from a snapshot
			for id, model := range snaps {
				lba := uint64(rng.Intn(lbaSpace))
				readSnap := func(addr uint64) ([]byte, error) { return srv.ReadSnapshot(id, addr) }
				want, ok := model[lba]
				if !ok {
					if _, err := readSnap(m.addr(lba)); err != ErrNotFound {
						t.Fatalf("%v op %d: snap read unwritten: %v", arch, op, err)
					}
					break
				}
				if err := m.check(readSnap, lba, want); err != nil {
					t.Fatalf("%v op %d: snapshot %d: %v", arch, op, id, err)
				}
				break
			}
		case r < 93: // delete a snapshot
			for id := range snaps {
				if err := srv.DeleteSnapshot(id); err != nil {
					t.Fatalf("%v op %d: delete snapshot: %v", arch, op, err)
				}
				delete(snaps, id)
				break
			}
		case r < 97: // compact
			if _, err := srv.Compact(0.3); err != nil {
				t.Fatalf("%v op %d: compact: %v", arch, op, err)
			}
		default: // checkpoint + recover (only when no snapshots:
			// snapshots are documented as volatile)
			if len(snaps) != 0 {
				continue
			}
			if err := srv.Checkpoint(); err != nil {
				t.Fatalf("%v op %d: checkpoint: %v", arch, op, err)
			}
			rcfg := cfg
			rcfg.TableSSD = srv.tableSSD
			rcfg.DataSSD = srv.dataSSD
			srv2, err := RecoverServer(rcfg)
			if err != nil {
				t.Fatalf("%v op %d: recover: %v", arch, op, err)
			}
			srv = srv2
		}
	}
	// Final audit: every live mapping reads correctly and the
	// volume passes fsck.
	for lba, seed := range live {
		if err := m.check(srv.Read, lba, seed); err != nil {
			t.Fatalf("%v final: %v", arch, err)
		}
	}
	rep, err := srv.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%v final fsck: %v", arch, rep.Problems)
	}
}
