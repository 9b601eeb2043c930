package ssd

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
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

	// A page that opens a new slab: its unwritten head and tail, and the
	// never-written page after it, still read as zeros.
	fillSlots(t, s, slabSize/4096)
	if err := s.Write(100, []byte("second slab")); err != nil {
		t.Fatal(err)
	}
	got, err = s.Read(0, 2*4096)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2*4096)
	copy(want[100:], "second slab")
	if !bytes.Equal(got, want) {
		t.Fatal("page opening a slab: unwritten bytes not zero")
	}
}

// fillSlots writes n fresh pages far from the low addresses the tests
// use, each holding its own page number, so that the next fresh page
// takes slot n.
func fillSlots(t *testing.T, s *SSD, n int) {
	t.Helper()
	page := make([]byte, 4096)
	for i := 0; i < n; i++ {
		page[0], page[1] = byte(i), byte(i>>8)
		if err := s.Write(uint64(256<<20+i*4096), page); err != nil {
			t.Fatal(err)
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

	// The same write once the first slab has two slots left: its pages
	// straddle the boundary into the second slab.
	s = MustNew(testConfig())
	fillSlots(t, s, slabSize/4096-2)
	if err := s.Write(off, data); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(off, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip across a slab boundary failed: %v", err)
	}
	if n := s.StoredPages(); n != slabSize/4096+3 {
		t.Errorf("stored pages = %d, want %d", n, slabSize/4096+3)
	}
	for i := 0; i < slabSize/4096-2; i++ {
		got, err := s.Read(uint64(256<<20+i*4096), 2)
		if err != nil || got[0] != byte(i) || got[1] != byte(i>>8) {
			t.Fatalf("filler page %d changed: %v %v", i, got, err)
		}
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

// TestClosedDeviceRefuses: every command on a closed device fails with
// ErrClosed, whatever holds its pages, and Close is idempotent.
func TestClosedDeviceRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		file bool
	}{{"memory", false}, {"file", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.file {
				cfg.BackingFile = t.TempDir() + "/vol.img"
			}
			s := MustNew(cfg)
			page := bytes.Repeat([]byte{7}, 4096)
			if err := s.Write(0, page); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4096)
			if err := s.ReadInto(buf, 0); !errors.Is(err, ErrClosed) {
				t.Errorf("ReadInto after Close: %v, want ErrClosed", err)
			}
			if _, err := s.Read(0, 4096); !errors.Is(err, ErrClosed) {
				t.Errorf("Read after Close: %v, want ErrClosed", err)
			}
			if err := s.Write(8192, page); !errors.Is(err, ErrClosed) {
				t.Errorf("Write after Close: %v, want ErrClosed", err)
			}
			if err := s.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			if n := s.StoredPages(); n != 0 {
				t.Errorf("closed device stores %d pages", n)
			}
			if st := s.Stats(); st.WriteIOs != 1 || st.ReadIOs != 0 {
				t.Errorf("refused commands were accounted: %+v", st)
			}
		})
	}
}

// TestDevicePagesStayOffHeap: fresh pages land in slabs, so writing 8 MiB
// of them allocates far less than 8 MiB on the Go heap.
func TestDevicePagesStayOffHeap(t *testing.T) {
	s := MustNew(testConfig())
	defer s.Close()
	const pages = 2048
	page := bytes.Repeat([]byte{1}, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pages; i++ {
		if err := s.Write(uint64(i)*4096, page); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew, wrote := after.TotalAlloc-before.TotalAlloc, uint64(pages*4096); grew >= wrote/16 {
		t.Errorf("writing %d fresh bytes allocated %d heap bytes, want < %d", wrote, grew, wrote/16)
	}
	if s.StoredPages() != pages {
		t.Errorf("stored pages = %d, want %d", s.StoredPages(), pages)
	}
}

// slabsReleasedTo runs collections until at most floor slabs are mapped,
// for a bounded number of rounds, and reports whether it got there.
func slabsReleasedTo(floor int64) bool {
	for i := 0; i < 1000 && mappedSlabs.Load() > floor; i++ {
		runtime.GC()
		runtime.Gosched()
	}
	return mappedSlabs.Load() <= floor
}

// TestUnclosedDevicesReleaseSlabs: a device dropped without Close gives
// its slabs back once collected; Close gives them back at once.
func TestUnclosedDevicesReleaseSlabs(t *testing.T) {
	// No device of an earlier test is reachable any more.
	if !slabsReleasedTo(0) {
		t.Fatalf("%d slabs of earlier tests never released", mappedSlabs.Load())
	}
	for i := 0; i < 64; i++ {
		if err := MustNew(testConfig()).Write(0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := mappedSlabs.Load(); n > 64 {
		t.Fatalf("%d slabs mapped for 64 one-page devices", n)
	}
	if !slabsReleasedTo(0) {
		t.Fatalf("%d slabs still mapped after 64 unclosed devices were dropped", mappedSlabs.Load())
	}

	s := MustNew(testConfig())
	if err := s.Write(0, make([]byte, 2*slabSize)); err != nil {
		t.Fatal(err)
	}
	if n := mappedSlabs.Load(); n != 2 {
		t.Fatalf("%d slabs mapped for 4 MiB of pages, want 2", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := mappedSlabs.Load(); n != 0 {
		t.Errorf("%d slabs still mapped after Close", n)
	}
}

func BenchmarkWrite4K(b *testing.B) {
	s := MustNew(testConfig())
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Write(uint64(i%1024)*4096, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteFreshPage4K is BenchmarkWrite4K where every write touches
// a page for the first time: the cost of giving a page its memory. A new
// device replaces the full one every 64 MiB, outside the timer.
func BenchmarkWriteFreshPage4K(b *testing.B) {
	const perDevice = 16384
	s := MustNew(testConfig())
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%perDevice == 0 {
			b.StopTimer()
			s.Close()
			s = MustNew(testConfig())
			b.StartTimer()
		}
		if err := s.Write(uint64(i%perDevice)*4096, buf); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
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

// TestInjectFaultAt: only the armed read and write commands fail, each
// counted from the arming on its own kind.
func TestInjectFaultAt(t *testing.T) {
	s := MustNew(testConfig())
	s.InjectFaultAt(3, 2, bytes.ErrTooLarge)
	var failed []string
	for i := 0; i < 4; i++ {
		if err := s.Write(0, make([]byte, 4096)); err != nil {
			failed = append(failed, "w"+string(rune('1'+i)))
		}
		if _, err := s.Read(0, 4096); err != nil {
			if !errors.Is(err, bytes.ErrTooLarge) {
				t.Fatal(err)
			}
			failed = append(failed, "r"+string(rune('1'+i)))
		}
	}
	if got := strings.Join(failed, " "); got != "w2 r3" {
		t.Fatalf("failed commands %q, want the 2nd write and the 3rd read", got)
	}
}
