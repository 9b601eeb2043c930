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

// waitHelpersGone waits for the pool helpers earlier tests started to
// exit: a helper stays resident for a short idle spin after its last item.
func waitHelpersGone(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		if !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "lanes.(*Pool).helper") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pool helpers from earlier tests still running")
		}
	}
}

// moduleGoroutines counts the goroutines this module's code started. The
// runtime and the testing package start and end goroutines of their own,
// which runtime.NumGoroutine would count too.
func moduleGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "\ncreated by fidr/")
}

// TestOneLaneStartsNoGoroutine: with one hash lane no pool helper starts,
// so a mixed stream of buffered writes, tips,
// reads and schedules leaves the count of the module's goroutines exactly
// where it was after every call.
func TestOneLaneStartsNoGoroutine(t *testing.T) {
	waitHelpersGone(t)
	n, err := New(Config{BufferBytes: 1 << 20, HashLanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := moduleGoroutines()
	step := 0
	check := func(call string) {
		t.Helper()
		step++
		if got := moduleGoroutines(); got != base {
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
		n.Tip()
		check("Tip")
		n.LookupRead(lba - 1)
		check("LookupRead")
		got := n.Detach()
		check("Detach")
		n.HeldFP(got / 2)
		check("HeldFP")
		if _, err := n.ScheduleBatch(make([]bool, got)); err != nil {
			t.Fatal(err)
		}
		check("ScheduleBatch")
	}
}

// TestUntippedScheduleJoinsHashers: ScheduleBatch on a filling buffer that
// pool helpers are hashing stops its hash job and waits for the hashes in
// flight before it empties the buffer's arena. Every chunk here is a
// duplicate, and the emptied arena is what the next BufferWrite
// overwrites at once; the race detector reports a helper still reading a
// chunk there. Tipped
// rounds in between check the hashes the same helpers write. Two lanes is
// one helper beside the caller; four lets helpers contend for the cursor.
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
				n.Tip()
				got := n.Detach()
				for i := range got {
					if fp, _ := n.HeldFP(i); fp != fingerprint.Of(chunkOf(first+uint64(i))) {
						t.Fatalf("%d lanes, round %d: chunk %d of %d has a wrong fingerprint", k, round, i, got)
					}
				}
				if _, err := n.ScheduleBatch(make([]bool, got)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Let a helper hash a chunk first, so the schedule meets the
			// job at work (with one P a helper runs only when this
			// goroutine yields).
			g := n.fill
			for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
				if g.slots[0].ready.Load() {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d lanes, round %d: no helper hashed a chunk of 64", k, round)
				}
			}
			if _, err := n.ScheduleBatch(make([]bool, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDetachHashesNothing: with one hash lane no helper runs, so a tip
// and detach hash no chunk of the batch, and HeldFP(i) hashes exactly the
// entries up to i, in order, each to fingerprint.Of of its bytes. The
// ready flags are the count; no clock is read.
func TestDetachHashesNothing(t *testing.T) {
	const batch = 16
	n, err := New(Config{BufferBytes: 1 << 20, HashLanes: 1, BatchChunks: batch})
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 3; round++ {
		for i := range uint64(batch) {
			if err := n.BufferWrite(i, chunkOf(round*batch+i)); err != nil {
				t.Fatal(err)
			}
		}
		n.Tip()
		if got := n.Detach(); got != batch {
			t.Fatalf("round %d: detached %d chunks, want %d", round, got, batch)
		}
		if got := n.HeldHashed(); got != 0 {
			t.Fatalf("round %d: tip and detach hashed %d chunks, want 0", round, got)
		}
		for _, i := range []int{0, 3, 4, 11, 15} {
			fp, _ := n.HeldFP(i)
			if fp != fingerprint.Of(chunkOf(round*batch+uint64(i))) || n.Head()[i].FP != fp {
				t.Fatalf("round %d: entry %d has a wrong fingerprint", round, i)
			}
			for j := range batch {
				if ready := n.back.slots[j].ready.Load(); ready != (j <= i) {
					t.Fatalf("round %d: after HeldFP(%d) entry %d hashed %v", round, i, j, ready)
				}
			}
		}
		if _, err := n.ScheduleBatch(make([]bool, batch)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFirstBatchAllocatesNoChunkBytes: each buffer's arena is allocated
// at New, so a fresh NIC's first full batch of BufferWrites copies every
// chunk into memory the NIC already holds and allocates less than a tenth
// of the batch's chunk bytes. An arena grown on demand allocates them all.
func TestFirstBatchAllocatesNoChunkBytes(t *testing.T) {
	const batch = 64
	n, err := New(Config{BufferBytes: batch * 4096, HashLanes: 1, BatchChunks: batch})
	if err != nil {
		t.Fatal(err)
	}
	chunks := make([][]byte, batch)
	for i := range chunks {
		chunks[i] = chunkOf(uint64(i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, c := range chunks {
		if err := n.BufferWrite(uint64(i), c); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= batch*4096/10 {
		t.Fatalf("the first batch of %d chunks allocated %d bytes, want < %d", batch, got, batch*4096/10)
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
	n.Tip()
	if got := n.Detach(); got != 2 {
		t.Fatalf("detach reported %d chunks", got)
	}
	n.HeldFP(0)
	n.HeldFP(1)
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
	// The held batch is scheduled first: the NIC holds one.
	if _, err := n.ScheduleBatch(make([]bool, 2)); err != nil {
		t.Fatal(err)
	}
	n.BufferWrite(30, a)
	n.Tip()
	n.Detach()
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

// TestHeldBatchAnswersReads: a joined batch keeps answering reads behind
// the filling buffer, which wins for an LBA in both, until ScheduleBatch
// consumes it.
func TestHeldBatchAnswersReads(t *testing.T) {
	n, _ := New(Config{BufferBytes: 1 << 20, BatchChunks: 4})
	old := bytes.Repeat([]byte{1}, 4096)
	fresh := bytes.Repeat([]byte{2}, 4096)
	for lba := uint64(0); lba < 4; lba++ {
		n.BufferWrite(lba, old)
	}
	n.Tip()
	n.Detach()
	n.BufferWrite(2, fresh)
	for _, c := range []struct {
		lba  uint64
		want []byte
	}{{1, old}, {2, fresh}} {
		if got, ok := n.LookupRead(c.lba); !ok || !bytes.Equal(got, c.want) {
			t.Fatalf("LBA %d before ScheduleBatch: hit %v, freshest bytes %v", c.lba, ok, bytes.Equal(got, c.want))
		}
	}
	if _, err := n.ScheduleBatch(make([]bool, 4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.LookupRead(1); ok {
		t.Fatal("a scheduled batch's LBA still hits")
	}
	if got, ok := n.LookupRead(2); !ok || !bytes.Equal(got, fresh) {
		t.Fatal("the filling buffer's LBA stopped hitting when the held batch was scheduled")
	}
	if st := n.Stats(); st.ReadLookups != 4 || st.ReadHits != 3 {
		t.Fatalf("read stats %+v", st)
	}
}

func TestScheduleBatchFiltersUniques(t *testing.T) {
	n, _ := New(Config{BufferBytes: 1 << 20})
	for i := 0; i < 4; i++ {
		n.BufferWrite(uint64(i), bytes.Repeat([]byte{byte(i)}, 4096))
	}
	n.Tip()
	n.Detach()
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
	if n.Buffered() != 0 || n.Held() || n.bufferedBytes.Value() != 0 {
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
