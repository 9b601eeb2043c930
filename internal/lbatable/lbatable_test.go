package lbatable

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, size := range []int{0, -64, 100, OffsetUnit*(1<<16) + OffsetUnit} {
		if _, err := New(size); err == nil {
			t.Errorf("New(%d) accepted", size)
		}
	}
	tb, err := New(DefaultContainerSize)
	if err != nil {
		t.Fatal(err)
	}
	if tb.ContainerSize() != DefaultContainerSize {
		t.Error("container size not stored")
	}
}

func TestAppendResolve(t *testing.T) {
	tb, _ := New(DefaultContainerSize)
	pbn, err := tb.AppendChunk(100, 0, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if pbn != 0 {
		t.Fatalf("first PBN = %d", pbn)
	}
	pba, err := tb.ResolveLBA(100)
	if err != nil {
		t.Fatal(err)
	}
	if pba.Container != 0 || pba.Offset != 0 || pba.CSize != 2048 || pba.RawSize != 4096 {
		t.Fatalf("pba = %+v", pba)
	}
	if got := pba.ByteOffset(DefaultContainerSize); got != 0 {
		t.Errorf("byte offset = %d", got)
	}
	// A variable-size chunk's record carries its own uncompressed length,
	// through Resolve and through a snapshot.
	want := PBA{Container: 0, Offset: 2048, CSize: 9000, RawSize: 31000}
	if _, err := tb.Append(200, want); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTable(tb.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []*Table{tb, restored} {
		if got, err := table.ResolveLBA(200); err != nil || got != want {
			t.Fatalf("variable-size chunk resolved to %+v, %v; want %+v", got, err, want)
		}
	}
	// A snapshot in the format that had no length field is refused.
	old := append([]byte("FIDRLBA1"), tb.Snapshot()[8:]...)
	if _, err := RestoreTable(old); err == nil {
		t.Fatal("pre-length snapshot format accepted")
	}
}

func TestMultiContainerResolve(t *testing.T) {
	tb, _ := New(4096)
	// Container 0: two chunks; container 1: one chunk.
	if _, err := tb.AppendChunk(1, 0, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AppendChunk(2, 0, 1024, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AppendChunk(3, 1, 0, 700); err != nil {
		t.Fatal(err)
	}
	pba2, _ := tb.ResolveLBA(2)
	if pba2.Container != 0 || pba2.Offset != 1024 || pba2.CSize != 500 {
		t.Errorf("lba2 pba = %+v", pba2)
	}
	pba3, _ := tb.ResolveLBA(3)
	if pba3.Container != 1 || pba3.Offset != 0 || pba3.CSize != 700 {
		t.Errorf("lba3 pba = %+v", pba3)
	}
	if got := pba3.ByteOffset(4096); got != 4096 {
		t.Errorf("lba3 byte offset = %d", got)
	}
}

func TestAppendValidation(t *testing.T) {
	tb, _ := New(4096)
	if _, err := tb.AppendChunk(1, 0, 63, 100); err == nil {
		t.Error("unaligned offset accepted")
	}
	if _, err := tb.AppendChunk(1, 0, 0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := tb.AppendChunk(1, 0, 4032, 100); err == nil {
		t.Error("overflow chunk accepted")
	}
	for _, raw := range []uint32{0, MaxCSize + 1} {
		if _, err := tb.Append(1, PBA{CSize: 100, RawSize: raw}); err == nil {
			t.Errorf("uncompressed length %d accepted", raw)
		}
	}
	// Appends may skip forward over containers that hold only relocated
	// chunks (GC packs without appending), but never go back into a
	// closed container.
	pbn, err := tb.AppendChunk(1, 2, 0, 100)
	if err != nil {
		t.Errorf("forward container gap rejected: %v", err)
	}
	if pba, err := tb.Resolve(pbn); err != nil || pba.Container != 2 {
		t.Errorf("chunk after gap resolved to %+v, %v", pba, err)
	}
	if tb.NextContainer() != 3 {
		t.Errorf("NextContainer %d after gap, want 3", tb.NextContainer())
	}
	if _, err := tb.AppendChunk(1, 0, 0, 100); err == nil {
		t.Error("append into closed container accepted")
	}
}

func TestMapLBADuplicatePath(t *testing.T) {
	tb, _ := New(4096)
	pbn, _ := tb.AppendChunk(10, 0, 0, 512)
	// A duplicate write at LBA 20 points at the same PBN.
	if err := tb.MapLBA(20, pbn); err != nil {
		t.Fatal(err)
	}
	a, _ := tb.ResolveLBA(10)
	b, _ := tb.ResolveLBA(20)
	if a != b {
		t.Fatalf("duplicate LBAs resolve differently: %+v vs %+v", a, b)
	}
	if err := tb.MapLBA(30, 99); err == nil {
		t.Error("mapping to unallocated PBN accepted")
	}
	if tb.Chunks() != 1 || tb.MappedLBAs() != 2 {
		t.Errorf("chunks=%d lbas=%d", tb.Chunks(), tb.MappedLBAs())
	}
}

func TestUnmappedLBA(t *testing.T) {
	tb, _ := New(4096)
	if _, err := tb.LookupLBA(42); err != ErrUnmapped {
		t.Fatalf("err = %v", err)
	}
	if _, err := tb.ResolveLBA(42); err != ErrUnmapped {
		t.Fatalf("err = %v", err)
	}
	if _, err := tb.Resolve(0); err == nil {
		t.Error("unallocated PBN resolved")
	}
}

func TestOverwriteLBA(t *testing.T) {
	tb, _ := New(4096)
	tb.AppendChunk(5, 0, 0, 100)
	pbn2, _ := tb.AppendChunk(5, 0, 128, 200)
	got, err := tb.LookupLBA(5)
	if err != nil || got != pbn2 {
		t.Fatalf("overwrite: pbn=%d err=%v", got, err)
	}
}

func TestResolveMatchesReferenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb, _ := New(8192)
		type ref struct {
			container uint64
			off       uint32
			csize     uint32
		}
		refs := make(map[uint64]ref)
		var container uint64
		var used int
		for i := 0; i < 200; i++ {
			csize := uint32(rng.Intn(2000) + 1)
			sz := (int(csize) + OffsetUnit - 1) / OffsetUnit * OffsetUnit
			if used+sz > 8192 {
				container++
				used = 0
			}
			lba := uint64(rng.Intn(100))
			pbn, err := tb.AppendChunk(lba, container, uint32(used), csize)
			if err != nil {
				return false
			}
			refs[pbn] = ref{container, uint32(used), csize}
			used += sz
		}
		for pbn, r := range refs {
			pba, err := tb.Resolve(pbn)
			if err != nil || pba.Container != r.container || pba.Offset != r.off || pba.CSize != r.csize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBuilderPacksAndSeals(t *testing.T) {
	b, err := NewBuilder(4096, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.Container() != 7 {
		t.Error("first container index wrong")
	}
	c1 := bytes.Repeat([]byte{1}, 100)
	c2 := bytes.Repeat([]byte{2}, 200)
	cont, off1, err := b.Append(c1)
	if err != nil || cont != 7 || off1 != 0 {
		t.Fatalf("append1: cont=%d off=%d err=%v", cont, off1, err)
	}
	_, off2, err := b.Append(c2)
	if err != nil || off2 != 128 {
		t.Fatalf("append2: off=%d err=%v (want 128: aligned after 100)", off2, err)
	}
	if b.Count() != 2 {
		t.Errorf("count = %d", b.Count())
	}
	idx, data, ok := b.Seal()
	if !ok || idx != 7 || len(data) != 4096 {
		t.Fatalf("seal: idx=%d len=%d ok=%v", idx, len(data), ok)
	}
	if !bytes.Equal(data[0:100], c1) || !bytes.Equal(data[128:328], c2) {
		t.Error("sealed contents wrong")
	}
	if b.Container() != 8 || b.Used() != 0 || b.Count() != 0 {
		t.Error("builder not reset after seal")
	}
}

func TestBuilderSealEmpty(t *testing.T) {
	b, _ := NewBuilder(4096, 0)
	if _, _, ok := b.Seal(); ok {
		t.Error("sealing empty container succeeded")
	}
	if b.Container() != 0 {
		t.Error("empty seal advanced container index")
	}
}

func TestBuilderRejectsOversize(t *testing.T) {
	b, _ := NewBuilder(4096, 0)
	if _, _, err := b.Append(make([]byte, 5000)); err == nil {
		t.Error("oversized chunk accepted")
	}
	if _, _, err := b.Append(nil); err == nil {
		t.Error("empty chunk accepted")
	}
	// Fill then overflow.
	if _, _, err := b.Append(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if b.Fits(1) {
		t.Error("full container claims fit")
	}
	if _, _, err := b.Append([]byte{1}); err == nil {
		t.Error("append into full container accepted")
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewBuilder(100, 0); err == nil {
		t.Error("unaligned size accepted")
	}
}

func BenchmarkAppendChunk(b *testing.B) {
	tb, _ := New(DefaultContainerSize)
	var container uint64
	var off uint32
	for i := 0; i < b.N; i++ {
		if int(off)+2048 > DefaultContainerSize {
			container++
			off = 0
		}
		if _, err := tb.AppendChunk(uint64(i), container, off, 2048); err != nil {
			b.Fatal(err)
		}
		off += 2048
	}
}

func BenchmarkResolveLBA(b *testing.B) {
	tb, _ := New(DefaultContainerSize)
	const n = 1 << 16
	var container uint64
	var off uint32
	for i := uint64(0); i < n; i++ {
		if int(off)+2048 > DefaultContainerSize {
			container++
			off = 0
		}
		tb.AppendChunk(i, container, off, 2048)
		off += 2048
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.ResolveLBA(uint64(i) & (n - 1)); err != nil {
			b.Fatal(err)
		}
	}
}
