package nic

import (
	"bytes"
	"testing"

	"fidr/internal/fingerprint"
)

func TestNewFIDRValidation(t *testing.T) {
	if _, err := New(Config{BufferBytes: 100}); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	if _, err := New(Config{BufferBytes: 1 << 20}); err != nil {
		t.Fatal(err)
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
