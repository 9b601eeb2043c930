package lbatable

import (
	"math/rand"
	"testing"
)

func TestRefCountLifecycle(t *testing.T) {
	tb, _ := New(4096)
	pbn, err := tb.AppendChunk(10, 0, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if rc, _ := tb.RefCount(pbn); rc != 1 {
		t.Fatalf("fresh chunk refcount = %d", rc)
	}
	// Dedup: two more LBAs reference the same chunk.
	tb.MapLBA(20, pbn)
	tb.MapLBA(30, pbn)
	if rc, _ := tb.RefCount(pbn); rc != 3 {
		t.Fatalf("refcount = %d after two dedup maps", rc)
	}
	// Re-mapping the same LBA to the same PBN is a no-op.
	tb.MapLBA(20, pbn)
	if rc, _ := tb.RefCount(pbn); rc != 3 {
		t.Fatalf("refcount = %d after idempotent remap", rc)
	}
	if _, err := tb.RefCount(99); err == nil {
		t.Fatal("refcount of unallocated PBN succeeded")
	}
}

func TestOverwriteDropsReference(t *testing.T) {
	tb, _ := New(4096)
	p1, _ := tb.AppendChunk(5, 0, 0, 500)
	p2, _ := tb.AppendChunk(5, 0, 512, 600) // overwrite LBA 5
	if rc, _ := tb.RefCount(p1); rc != 0 {
		t.Fatalf("overwritten chunk refcount = %d", rc)
	}
	if rc, _ := tb.RefCount(p2); rc != 1 {
		t.Fatalf("new chunk refcount = %d", rc)
	}
	dead := tb.DeadBytes()
	if dead[0] != 500 {
		t.Fatalf("dead bytes = %v, want 500 in container 0", dead)
	}
}

func TestReviveDeadChunk(t *testing.T) {
	tb, _ := New(4096)
	p1, _ := tb.AppendChunk(5, 0, 0, 500)
	tb.AppendChunk(5, 0, 512, 600) // kill p1
	if rc, _ := tb.RefCount(p1); rc != 0 {
		t.Fatal("p1 should be dead")
	}
	// A later duplicate write maps to p1 again (its fingerprint is
	// still in the Hash-PBN table).
	if err := tb.MapLBA(7, p1); err != nil {
		t.Fatal(err)
	}
	if rc, _ := tb.RefCount(p1); rc != 1 {
		t.Fatal("revive did not restore the reference")
	}
	if dead := tb.DeadBytes(); dead[0] != 0 {
		t.Fatalf("dead bytes = %v after revive, want none", dead)
	}
}

func TestLiveAndDeadChunks(t *testing.T) {
	tb, _ := New(8192)
	var pbns []uint64
	for i := 0; i < 4; i++ {
		p, err := tb.AppendChunk(uint64(i), 0, uint32(i*1024), 1000)
		if err != nil {
			t.Fatal(err)
		}
		pbns = append(pbns, p)
	}
	// Kill chunks 1 and 3 by overwriting their LBAs in container 1.
	tb.AppendChunk(1, 1, 0, 800)
	tb.AppendChunk(3, 1, 1024, 800)
	live := tb.LiveChunks(0)
	dead := tb.DeadChunks(0)
	if len(live) != 2 || live[0] != pbns[0] || live[1] != pbns[2] {
		t.Fatalf("live = %v", live)
	}
	if len(dead) != 2 || dead[0] != pbns[1] || dead[1] != pbns[3] {
		t.Fatalf("dead = %v", dead)
	}
	if db := tb.DeadBytes(); db[0] != 2000 {
		t.Fatalf("dead bytes = %v", db)
	}
}

func TestRelocatePreservesResolution(t *testing.T) {
	tb, _ := New(8192)
	pbn, _ := tb.AppendChunk(1, 0, 1024, 900)
	if err := tb.Relocate(pbn, 5, 2048); err != nil {
		t.Fatal(err)
	}
	pba, err := tb.Resolve(pbn)
	if err != nil {
		t.Fatal(err)
	}
	if pba.Container != 5 || pba.Offset != 2048 || pba.CSize != 900 {
		t.Fatalf("relocated pba = %+v", pba)
	}
	// LBA resolution follows (the PBN is unchanged).
	pba2, _ := tb.ResolveLBA(1)
	if pba2 != pba {
		t.Fatal("LBA resolution ignores relocation")
	}
}

func TestRelocateValidation(t *testing.T) {
	tb, _ := New(4096)
	if err := tb.Relocate(0, 1, 0); err == nil {
		t.Error("relocating unallocated PBN accepted")
	}
	pbn, _ := tb.AppendChunk(1, 0, 0, 600)
	if err := tb.Relocate(pbn, 1, 63); err == nil {
		t.Error("unaligned relocation accepted")
	}
	if err := tb.Relocate(pbn, 1, 3584); err == nil {
		t.Error("overflowing relocation accepted")
	}
}

func TestRetireContainer(t *testing.T) {
	tb, _ := New(4096)
	tb.AppendChunk(1, 0, 0, 500)
	tb.AppendChunk(1, 0, 512, 500) // kill the first
	if db := tb.DeadBytes(); db[0] == 0 {
		t.Fatal("no dead bytes recorded")
	}
	tb.RetireContainer(0)
	if db := tb.DeadBytes(); len(db) != 0 {
		t.Fatalf("dead bytes after retire: %v", db)
	}
}

func TestRefcountsRandomizedInvariant(t *testing.T) {
	// Invariant: sum of refcounts == number of mapped LBAs.
	tb, _ := New(1 << 16)
	rng := rand.New(rand.NewSource(11))
	var pbns []uint64
	off := uint32(0)
	container := uint64(0)
	for i := 0; i < 2000; i++ {
		lba := uint64(rng.Intn(300))
		if len(pbns) == 0 || rng.Intn(3) == 0 {
			csize := uint32(rng.Intn(900) + 64)
			if int(off)+int(csize) > 1<<16 {
				container++
				off = 0
			}
			p, err := tb.AppendChunk(lba, container, off, csize)
			if err != nil {
				t.Fatal(err)
			}
			off += (csize + OffsetUnit - 1) / OffsetUnit * OffsetUnit
			pbns = append(pbns, p)
		} else {
			if err := tb.MapLBA(lba, pbns[rng.Intn(len(pbns))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sum uint64
	for _, p := range pbns {
		rc, err := tb.RefCount(p)
		if err != nil {
			t.Fatal(err)
		}
		sum += uint64(rc)
	}
	if sum != uint64(tb.MappedLBAs()) {
		t.Fatalf("refcount sum %d != mapped LBAs %d", sum, tb.MappedLBAs())
	}
}

func TestRelocateAdvancesFrontier(t *testing.T) {
	tb, _ := New(4096)
	pbn, err := tb.AppendChunk(1, 0, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NextContainer() != 1 {
		t.Fatalf("NextContainer %d, want 1", tb.NextContainer())
	}
	// GC packs the chunk into container 7, which never sees an append.
	if err := tb.Relocate(pbn, 7, 64); err != nil {
		t.Fatal(err)
	}
	if tb.NextContainer() != 8 {
		t.Fatalf("NextContainer %d after relocation, want 8 (container 7 holds live data)", tb.NextContainer())
	}
	// The frontier must survive a snapshot/restore cycle, or recovery
	// would allocate container 7 again and overwrite the relocated chunk.
	restored, err := RestoreTable(tb.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if restored.NextContainer() != 8 {
		t.Fatalf("restored NextContainer %d, want 8", restored.NextContainer())
	}
	pba, err := restored.Resolve(pbn)
	if err != nil || pba.Container != 7 || pba.Offset != 64 {
		t.Fatalf("restored relocation lost: %+v, %v", pba, err)
	}
	// Post-GC appends continue past the frontier.
	if _, err := restored.AppendChunk(2, 8, 0, 512); err != nil {
		t.Fatalf("append after relocated frontier: %v", err)
	}
}

// TestDeadTotalMatchesMap drives random append / remap (which kills and
// revives chunks) / retain / release / retire sequences and checks after
// every step that the maintained TotalDeadBytes equals the sum of the
// DeadBytes() map and DeadBytesIn matches each entry — including across
// a snapshot/restore cycle.
func TestDeadTotalMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name       string
		seed       int64
		lbas       int
		retireEach int // retire a container every N steps (0 = never)
	}{
		{"overwrite-heavy", 1, 20, 0},
		{"wide-lba-space", 2, 500, 0},
		{"with-retire", 3, 40, 97},
		{"retire-often", 4, 10, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, _ := New(1 << 14)
			rng := rand.New(rand.NewSource(tc.seed))
			var pbns, retained []uint64
			off, container := uint32(0), uint64(0)
			check := func(tb *Table, step int) {
				t.Helper()
				var sum uint64
				for c, b := range tb.DeadBytes() {
					sum += b
					if got := tb.DeadBytesIn(c); got != b {
						t.Fatalf("step %d: DeadBytesIn(%d) = %d, map says %d", step, c, got, b)
					}
				}
				if got := tb.TotalDeadBytes(); got != sum {
					t.Fatalf("step %d: TotalDeadBytes = %d, map sums to %d", step, got, sum)
				}
			}
			for i := 0; i < 1500; i++ {
				lba := uint64(rng.Intn(tc.lbas))
				switch op := rng.Intn(10); {
				case len(pbns) == 0 || op < 3:
					csize := uint32(rng.Intn(900) + 64)
					if int(off)+int(csize) > 1<<14 {
						container++
						off = 0
					}
					p, err := tb.AppendChunk(lba, container, off, csize)
					if err != nil {
						t.Fatal(err)
					}
					off += (csize + OffsetUnit - 1) / OffsetUnit * OffsetUnit
					pbns = append(pbns, p)
				case op < 8:
					// Remap: may kill the old chunk and revive a dead one.
					if err := tb.MapLBA(lba, pbns[rng.Intn(len(pbns))]); err != nil {
						t.Fatal(err)
					}
				case op == 8:
					p := pbns[rng.Intn(len(pbns))]
					if err := tb.Retain(p); err != nil {
						t.Fatal(err)
					}
					retained = append(retained, p)
				case len(retained) > 0:
					j := rng.Intn(len(retained))
					if err := tb.Release(retained[j]); err != nil {
						t.Fatal(err)
					}
					retained = append(retained[:j], retained[j+1:]...)
				}
				if tc.retireEach > 0 && i%tc.retireEach == tc.retireEach-1 && container > 0 {
					tb.RetireContainer(uint64(rng.Intn(int(container))))
				}
				check(tb, i)
			}
			restored, err := RestoreTable(tb.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			check(restored, -1)
			if restored.TotalDeadBytes() != tb.TotalDeadBytes() {
				t.Fatalf("restored total %d != live total %d", restored.TotalDeadBytes(), tb.TotalDeadBytes())
			}
		})
	}
}
