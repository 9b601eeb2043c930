package nic

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"time"

	"fidr/internal/fingerprint"
	"fidr/internal/lanes"
)

func TestNewFIDRValidation(t *testing.T) {
	if _, err := New(Config{BufferBytes: 100}); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	if _, err := New(Config{BufferBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHashLanesDefault: a zero or negative HashLanes selects the
// GOMAXPROCS-derived default, as core.Config's does; a positive one is
// taken as is.
func TestHashLanesDefault(t *testing.T) {
	for _, tc := range []struct{ cfg, want int }{{0, lanes.Default()}, {-2, lanes.Default()}, {1, 1}, {3, 3}} {
		n, err := New(Config{BufferBytes: 1 << 20, HashLanes: tc.cfg})
		if err != nil {
			t.Fatal(err)
		}
		if got := n.HashLanes(); got != tc.want {
			t.Errorf("HashLanes %d: NIC runs %d lanes, want %d", tc.cfg, got, tc.want)
		}
	}
}

// chunkOf returns a distinct 4-KB chunk for i.
func chunkOf(i uint64) []byte {
	c := bytes.Repeat([]byte{byte(i)}, 4096)
	binary.LittleEndian.PutUint64(c, i)
	return c
}

// waitHashersGone waits for the arrival hashers earlier tests woke to
// exit: a hasher signals its join before its last instructions run.
func waitHashersGone(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		if !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "nic.newGeneration") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("arrival hashers from earlier tests still running")
		}
	}
}

// TestOneLaneStartsNoGoroutine: with one hash lane there are no arrival
// hashers, so a mixed stream of buffered writes, tips in both modes,
// reads and schedules leaves the goroutine count exactly where it was
// after every call.
func TestOneLaneStartsNoGoroutine(t *testing.T) {
	waitHashersGone(t)
	n, err := New(Config{BufferBytes: 1 << 20, HashLanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	step := 0
	check := func(call string) {
		t.Helper()
		step++
		if got := runtime.NumGoroutine(); got != base {
			t.Fatalf("call %d (%s): %d goroutines, %d before the first call", step, call, got, base)
		}
	}
	lba := uint64(0)
	for round := 0; round < 6; round++ {
		for i := 0; i < 3*wakeBacklog+round; i++ {
			if err := n.BufferWrite(lba, chunkOf(lba)); err != nil {
				t.Fatal(err)
			}
			check("BufferWrite")
			lba++
			if i%5 == 0 {
				n.LookupRead(lba - 1)
				check("LookupRead")
			}
		}
		if round%3 == 2 { // untipped: the filling buffer drains directly
			if _, err := n.ScheduleBatch(make([]bool, n.Buffered())); err != nil {
				t.Fatal(err)
			}
			check("ScheduleBatch (untipped)")
			continue
		}
		n.Tip(round%2 == 0)
		check("Tip")
		n.LookupRead(lba - 1)
		check("LookupRead")
		got := n.Join()
		check("Join")
		if _, err := n.ScheduleBatch(make([]bool, got)); err != nil {
			t.Fatal(err)
		}
		check("ScheduleBatch")
	}
}

// TestUntippedScheduleJoinsHashers: ScheduleBatch on a filling buffer that
// arrival hashers are working on stops them and waits for them before it
// recycles a chunk. Every chunk here is a duplicate, so its buffer goes
// back to the pool and the next BufferWrite overwrites it at once; the
// race detector reports a hasher still reading one. Tipped rounds in
// between check the hashes the same hashers write. Two lanes is one
// hasher beside the caller; four lets hashers contend for the cursor.
func TestUntippedScheduleJoinsHashers(t *testing.T) {
	for _, k := range []int{2, 4} {
		n, err := New(Config{BufferBytes: 1 << 20, HashLanes: k})
		if err != nil {
			t.Fatal(err)
		}
		lba := uint64(0)
		for round := 0; round < 200; round++ {
			first := lba
			for i := 0; i < 64; i++ {
				if err := n.BufferWrite(lba, chunkOf(lba)); err != nil {
					t.Fatal(err)
				}
				lba++
			}
			if round%2 == 1 {
				n.Tip(false)
				got := n.Join()
				for i, e := range n.Head() {
					if e.FP != fingerprint.Of(chunkOf(first+uint64(i))) {
						t.Fatalf("%d lanes, round %d: chunk %d of %d has a wrong fingerprint", k, round, i, got)
					}
				}
				if _, err := n.ScheduleBatch(make([]bool, got)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Let a hasher claim a chunk first, so the schedule meets one
			// at work (with one P it runs only when this goroutine yields).
			g := n.fill
			for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
				g.mu.Lock()
				claimed := g.next
				g.mu.Unlock()
				if claimed > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d lanes, round %d: no arrival hasher claimed a chunk of 64", k, round)
				}
			}
			if _, err := n.ScheduleBatch(make([]bool, 64)); err != nil {
				t.Fatal(err)
			}
			g.mu.Lock()
			running := g.running
			g.mu.Unlock()
			if running != 0 {
				t.Fatalf("%d lanes, round %d: %d arrival hashers still running after ScheduleBatch", k, round, running)
			}
		}
	}
}

func TestBufferWriteAndFull(t *testing.T) {
	n, _ := New(Config{BufferBytes: 3 * 4096})
	chunk := make([]byte, 4096)
	for i := 0; i < 3; i++ {
		chunk[0] = byte(i)
		if err := n.BufferWrite(uint64(i), chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.BufferWrite(9, chunk); err != ErrBufferFull {
		t.Fatalf("expected ErrBufferFull, got %v", err)
	}
	if n.Buffered() != 3 || n.bufferedBytes.Value() != 3*4096 {
		t.Fatalf("buffered %d/%v", n.Buffered(), n.bufferedBytes.Value())
	}
}

func TestBufferCopiesData(t *testing.T) {
	n, _ := New(Config{BufferBytes: 1 << 20})
	data := []byte("mutable client buffer........................")
	n.BufferWrite(1, data)
	data[0] = 'X'
	got, ok := n.LookupRead(1)
	if !ok || got[0] == 'X' {
		t.Fatal("NIC aliased the client buffer")
	}
}

func TestHashAllComputesSHA(t *testing.T) {
	n, _ := New(Config{BufferBytes: 1 << 20})
	a := bytes.Repeat([]byte{1}, 4096)
	b := bytes.Repeat([]byte{2}, 4096)
	n.BufferWrite(10, a)
	n.BufferWrite(20, b)
	n.Tip(false)
	if got := n.Join(); got != 2 {
		t.Fatalf("join reported %d chunks", got)
	}
	entries := n.Head()
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	if entries[0].FP != fingerprint.Of(a) || entries[1].FP != fingerprint.Of(b) {
		t.Fatal("NIC hash mismatch")
	}
	if st := n.Stats(); st.HashOps != 2 || st.HashBytes != 2*4096 {
		t.Fatalf("hash stats %+v", st)
	}
	// No chunk is hashed twice: a tip always detaches the filling buffer,
	// so the next round covers only what was buffered since the last tip.
	n.BufferWrite(30, a)
	n.Tip(false)
	n.Join()
	if st := n.Stats(); st.HashOps != 3 || st.HashBytes != 3*4096 {
		t.Fatalf("hashed chunks re-hashed: %+v", st)
	}
}

func TestLookupReadHitAndMiss(t *testing.T) {
	n, _ := New(Config{BufferBytes: 1 << 20})
	v1 := bytes.Repeat([]byte{1}, 4096)
	v2 := bytes.Repeat([]byte{2}, 4096)
	n.BufferWrite(5, v1)
	n.BufferWrite(5, v2) // overwrite same LBA: freshest wins
	got, ok := n.LookupRead(5)
	if !ok || !bytes.Equal(got, v2) {
		t.Fatal("in-NIC read did not return freshest write")
	}
	if _, ok := n.LookupRead(6); ok {
		t.Fatal("read hit for unbuffered LBA")
	}
	st := n.Stats()
	if st.ReadLookups != 2 || st.ReadHits != 1 {
		t.Fatalf("read stats %+v", st)
	}
}

func TestScheduleBatchFiltersUniques(t *testing.T) {
	n, _ := New(Config{BufferBytes: 1 << 20})
	for i := 0; i < 4; i++ {
		n.BufferWrite(uint64(i), bytes.Repeat([]byte{byte(i)}, 4096))
	}
	n.Tip(false)
	n.Join()
	batch, err := n.ScheduleBatch([]bool{true, false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].LBA != 0 || batch[1].LBA != 2 {
		t.Fatalf("batch = %+v", batch)
	}
	st := n.Stats()
	if st.UniqueSent != 2 || st.DuplicateDrops != 2 || st.BatchesMade != 1 {
		t.Fatalf("batch stats %+v", st)
	}
	// Buffer drained: LBA lookups now miss, and capacity is reclaimed.
	if n.Buffered() != 0 || n.Waiting() != 0 || n.bufferedBytes.Value() != 0 {
		t.Fatal("buffer not drained")
	}
	if _, ok := n.LookupRead(0); ok {
		t.Fatal("drained entry still readable")
	}
}

func TestScheduleBatchFlagMismatch(t *testing.T) {
	n, _ := New(Config{BufferBytes: 1 << 20})
	n.BufferWrite(1, make([]byte, 4096))
	if _, err := n.ScheduleBatch([]bool{true, false}); err == nil {
		t.Fatal("flag count mismatch accepted")
	}
}

func TestPlainNIC(t *testing.T) {
	p := NewPlain()
	p.ReceiveWrite(make([]byte, 4096))
	p.ReceiveWrite(make([]byte, 4096))
	if st := p.Stats(); st.WritesBuffered != 2 || st.BytesBuffered != 8192 {
		t.Fatalf("plain stats %+v", st)
	}
}

func TestSHACoresFor(t *testing.T) {
	if got := SHACoresFor(LineRateBytes); got != 16 {
		t.Errorf("full line rate needs %d cores, want 16", got)
	}
	if got := SHACoresFor(LineRateBytes / 2); got != 8 {
		t.Errorf("half line rate needs %d cores, want 8", got)
	}
	if got := SHACoresFor(0); got != 0 {
		t.Errorf("zero rate needs %d cores", got)
	}
	if got := SHACoresFor(1); got != 1 {
		t.Errorf("tiny rate needs %d cores", got)
	}
}

func TestAreaMatchesTable4(t *testing.T) {
	within := func(got, want, tolPct int) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d*100 <= want*tolPct
	}
	// Write-only: support 125K LUT / 128K FF / 95 BRAM.
	w := SupportResources(1.0)
	if !within(w.LUTs, 125000, 5) || !within(w.FFs, 128000, 5) || !within(w.BRAMs, 95, 10) {
		t.Errorf("write-only support = %+v, paper 125K/128K/95", w)
	}
	// Mixed: support 84K LUT / 87K FF / 75 BRAM.
	m := SupportResources(0.5)
	if !within(m.LUTs, 84000, 5) || !within(m.FFs, 87000, 5) || !within(m.BRAMs, 75, 10) {
		t.Errorf("mixed support = %+v, paper 84K/87K/75", m)
	}
	// Totals: write-only 290K LUT (24.5% of VCU1525).
	tot := TotalResources(1.0)
	if !within(tot.LUTs, 290000, 5) || !within(tot.BRAMs, 1119, 5) {
		t.Errorf("write-only total = %+v, paper 290K/1119", tot)
	}
	// Clamping.
	if SupportResources(-1) != SupportResources(0) {
		t.Error("negative fraction not clamped")
	}
	if SupportResources(2) != SupportResources(1) {
		t.Error(">1 fraction not clamped")
	}
}
