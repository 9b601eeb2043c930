package ssd

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testConfig() Config {
	return Config{
		Name:          "test",
		CapacityBytes: 1 << 30,
		PageSize:      4096,
		ReadLatency:   85 * time.Microsecond,
		WriteLatency:  30 * time.Microsecond,
		ReadBW:        3.5e9,
		WriteBW:       2.7e9,
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{CapacityBytes: 1, PageSize: 0, ReadBW: 1, WriteBW: 1},
		{CapacityBytes: 1, PageSize: 4096, ReadBW: 0, WriteBW: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := Samsung970Pro("d").Validate(); err != nil {
		t.Errorf("preset invalid: %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := MustNew(testConfig())
	data := []byte("fidr stores compressed containers")
	if err := s.Write(10000, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(10000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	s := MustNew(testConfig())
	got, err := s.Read(4096, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten region not zero")
		}
	}
}

func TestCrossPageWrite(t *testing.T) {
	s := MustNew(testConfig())
	data := make([]byte, 3*4096+123)
	rand.New(rand.NewSource(1)).Read(data)
	off := uint64(4096 - 57) // unaligned, spans 4+ pages
	if err := s.Write(off, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(off, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip mismatch")
	}
	if s.StoredPages() < 4 {
		t.Errorf("expected >=4 pages stored, got %d", s.StoredPages())
	}
}

func TestBoundsChecks(t *testing.T) {
	s := MustNew(testConfig())
	if err := s.Write(s.Config().CapacityBytes-10, make([]byte, 20)); err == nil {
		t.Error("write beyond capacity accepted")
	}
	if _, err := s.Read(s.Config().CapacityBytes-10, 20); err == nil {
		t.Error("read beyond capacity accepted")
	}
	if _, err := s.Read(0, -1); err == nil {
		t.Error("negative read accepted")
	}
}

// TestBoundsChecksDoNotWrap: off+n wrapping past 2^64 used to pass the
// capacity check — the read returned zeros with a nil error and the write
// stored pages at a wrapped address. Offsets come from PBAs and bucket
// numbers, i.e. from bytes a checkpoint or WAL supplied.
func TestBoundsChecksDoNotWrap(t *testing.T) {
	s := MustNew(testConfig())
	for _, off := range []uint64{^uint64(0) - 1, ^uint64(0) - 4095, ^uint64(0), s.Config().CapacityBytes + 1} {
		if _, err := s.Read(off, 4096); err == nil {
			t.Errorf("Read at %#x accepted", off)
		}
		if err := s.ReadInto(make([]byte, 4096), off); err == nil {
			t.Errorf("ReadInto at %#x accepted", off)
		}
		if err := s.Write(off, make([]byte, 4096)); err == nil {
			t.Errorf("Write at %#x accepted", off)
		}
	}
	if s.StoredPages() != 0 {
		t.Errorf("rejected writes stored %d pages", s.StoredPages())
	}
	if st := s.Stats(); st.ReadIOs+st.WriteIOs != 0 {
		t.Errorf("rejected commands were accounted: %+v", st)
	}
	// The last byte of the device is still addressable.
	if err := s.Write(s.Config().CapacityBytes-1, []byte{7}); err != nil {
		t.Errorf("write of the last byte: %v", err)
	}
	if err := s.ReadInto(nil, s.Config().CapacityBytes); err != nil {
		t.Errorf("empty read at capacity: %v", err)
	}
}

// TestReadIntoMatchesRead: Read is make + ReadInto — same bytes, same
// faults, same accounting — and ReadInto itself allocates nothing.
func TestReadIntoMatchesRead(t *testing.T) {
	s := MustNew(testConfig())
	data := bytes.Repeat([]byte("fidr"), 3000) // unaligned, spans pages
	if err := s.Write(1000, data); err != nil {
		t.Fatal(err)
	}
	want, err := s.Read(500, 13000) // leading and trailing holes read as zeros
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{0xFF}, 13000)
	if err := s.ReadInto(got, 500); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadInto differs from Read (err %v)", err)
	}
	if st := s.Stats(); st.ReadIOs != 2 || st.ReadBytes != 26000 {
		t.Errorf("both forms must account one command each: %+v", st)
	}
	s.InjectFaults(1, 0, bytes.ErrTooLarge)
	if err := s.ReadInto(got, 500); err == nil {
		t.Error("injected read fault not delivered to ReadInto")
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.ReadInto(got, 500) }); n != 0 {
		t.Errorf("ReadInto: %v allocs/run, want 0", n)
	}
}

func TestWriteReadProperty(t *testing.T) {
	s := MustNew(testConfig())
	prop := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := uint64(off) % (1<<30 - 1<<20) // keep within capacity
		if err := s.Write(o, data); err != nil {
			return false
		}
		got, err := s.Read(o, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsAndAccessTime(t *testing.T) {
	s := MustNew(testConfig())
	if err := s.Write(0, make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(0, 4096); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WriteIOs != 1 || st.ReadIOs != 1 {
		t.Errorf("IOs = %d/%d", st.WriteIOs, st.ReadIOs)
	}
	if st.WriteBytes != 8192 || st.ReadBytes != 4096 {
		t.Errorf("bytes = %d/%d", st.WriteBytes, st.ReadBytes)
	}
	if st.BusyDuration <= 0 {
		t.Error("busy duration not accumulated")
	}
	// Access time must exceed base latency and grow with size.
	small := s.AccessTime(false, 4096)
	large := s.AccessTime(false, 4<<20)
	if small < s.Config().ReadLatency {
		t.Error("access time below base latency")
	}
	if large <= small {
		t.Error("access time not increasing with transfer size")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := MustNew(testConfig())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(g + 1)}, 4096)
			off := uint64(g) * 4096
			for i := 0; i < 50; i++ {
				if err := s.Write(off, buf); err != nil {
					t.Error(err)
					return
				}
				got, err := s.Read(off, 4096)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Error("interleaved data corruption")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkWrite4K(b *testing.B) {
	s := MustNew(testConfig())
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if err := s.Write(uint64(i%1024)*4096, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFileBackedPersistence(t *testing.T) {
	path := t.TempDir() + "/vol.img"
	cfg := testConfig()
	cfg.BackingFile = path
	s1 := MustNew(cfg)
	data := []byte("survives process restarts")
	if err := s1.Write(12345, data); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: contents intact; holes still read zero.
	s2 := MustNew(cfg)
	defer s2.Close()
	got, err := s2.Read(12345, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("persisted data lost: %q", got)
	}
	hole, err := s2.Read(1<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range hole {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
	if s2.StoredPages() == 0 {
		t.Error("file-backed page estimate empty")
	}
}

func TestFileBackedRoundTripUnaligned(t *testing.T) {
	cfg := testConfig()
	cfg.BackingFile = t.TempDir() + "/vol.img"
	s := MustNew(cfg)
	defer s.Close()
	data := make([]byte, 3*4096+77)
	rand.New(rand.NewSource(4)).Read(data)
	if err := s.Write(4096-13, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(4096-13, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("file-backed unaligned round trip failed: %v", err)
	}
}

func TestFileBackedBadPath(t *testing.T) {
	cfg := testConfig()
	cfg.BackingFile = "/nonexistent-dir-xyz/vol.img"
	if _, err := New(cfg); err == nil {
		t.Fatal("unopenable backing file accepted")
	}
}
