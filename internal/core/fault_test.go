package core

import (
	"bytes"
	"errors"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/ssd"
)

var errMedia = errors.New("simulated media error")

// faultServer builds a FIDR server with injectable devices.
func faultServer(t *testing.T) (*Server, *ssd.SSD, *ssd.SSD) {
	t.Helper()
	return faultServerLanes(t, 0)
}

// faultServerLanes is faultServer with lanes hash and compress lanes (0:
// the default).
func faultServerLanes(t *testing.T, lanes int) (*Server, *ssd.SSD, *ssd.SSD) {
	t.Helper()
	cfg := DefaultConfig(FIDRFull)
	cfg.ContainerSize = 64 << 10
	cfg.HashLanes, cfg.CompressLanes = lanes, lanes
	tssd := ssd.MustNew(ssd.Config{Name: "tssd", CapacityBytes: 1 << 32, PageSize: 4096,
		ReadLatency: 0, WriteLatency: 0, ReadBW: 3.5e9, WriteBW: 2.7e9})
	dssd := ssd.MustNew(ssd.Config{Name: "dssd", CapacityBytes: 1 << 32, PageSize: 4096,
		ReadLatency: 0, WriteLatency: 0, ReadBW: 3.5e9, WriteBW: 2.7e9})
	cfg.TableSSD = tssd
	cfg.DataSSD = dssd
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, tssd, dssd
}

func TestDataSSDReadFaultSurfaces(t *testing.T) {
	s, _, dssd := faultServer(t)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 100; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	dssd.InjectFaults(1, 0, errMedia)
	// Find a read that actually hits the SSD (not the open container).
	var sawError bool
	for i := uint64(0); i < 100; i++ {
		if _, err := s.Read(i); err != nil {
			if !errors.Is(err, errMedia) {
				t.Fatalf("wrong error surfaced: %v", err)
			}
			sawError = true
			break
		}
	}
	if !sawError {
		t.Fatal("injected data-SSD read fault never surfaced")
	}
	// Subsequent reads recover (the fault was transient).
	got, err := s.Read(50)
	if err != nil || !bytes.Equal(got, sh.Make(50, 4096)) {
		t.Fatalf("server did not recover after transient fault: %v", err)
	}
}

func TestTableSSDFaultSurfacesOnMiss(t *testing.T) {
	s, tssd, _ := faultServer(t)
	sh := blockcomp.NewShaper(0.5)
	// Enough distinct chunks to overflow the bucket cache and force
	// table-SSD traffic later.
	for i := uint64(0); i < 2000; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	tssd.InjectFaults(5, 5, errMedia)
	var sawError bool
	for i := uint64(5000); i < 5300; i++ {
		if err := s.Write(i, sh.Make(100000+i, 4096)); err != nil {
			if !errors.Is(err, errMedia) {
				t.Fatalf("wrong error: %v", err)
			}
			sawError = true
			break
		}
	}
	if !sawError {
		t.Skip("cache absorbed all table traffic at this scale")
	}
}

func TestWriteFaultOnContainerFlush(t *testing.T) {
	s, _, dssd := faultServer(t)
	sh := blockcomp.NewShaper(0.5)
	dssd.InjectFaults(0, 1, errMedia)
	var sawError bool
	// Write until a container seals and flushes (64 KiB container, ~30
	// compressed chunks).
	for i := uint64(0); i < 200; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			if !errors.Is(err, errMedia) {
				t.Fatalf("wrong error: %v", err)
			}
			sawError = true
			break
		}
	}
	if !sawError {
		if err := s.Flush(); err == nil || !errors.Is(err, errMedia) {
			t.Fatalf("container-write fault never surfaced: %v", err)
		}
	}
}

// --- WAL fault matrix (issue satellite): short writes, torn records,
// fsync failures. In every case the commit error must surface to the
// caller, and recovery over the durable prefix must replay cleanly and
// leave a verifiable volume.

// walFaultServer builds a FIDR server over a fault-injectable WAL device.
func walFaultServer(t *testing.T) (*Server, *MemWALDevice, Config) {
	t.Helper()
	tssd := ssd.MustNew(ssd.Config{Name: "tssd", CapacityBytes: 1 << 28, PageSize: 4096,
		ReadBW: 3.5e9, WriteBW: 2.7e9})
	dssd := ssd.MustNew(ssd.Config{Name: "dssd", CapacityBytes: 1 << 28, PageSize: 4096,
		ReadBW: 3.5e9, WriteBW: 2.7e9})
	dev := NewMemWALDevice()
	w, err := NewWAL(dev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := walTestConfig(FIDRFull, tssd, dssd, w)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, dev, cfg
}

// walRecoverAndVerify crashes the device, recovers, and checks every
// invariant plus the expected readable prefix [0, lbas).
func walRecoverAndVerify(t *testing.T, dev *MemWALDevice, cfg Config, lbas uint64, content func(uint64) []byte) *Server {
	t.Helper()
	dev.Crash()
	w, err := NewWAL(dev)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = w
	r, err := RecoverServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("recovered volume inconsistent: %v", rep.Problems)
	}
	for i := uint64(0); i < lbas; i++ {
		got, err := r.Read(i)
		if err != nil {
			t.Fatalf("read %d after recovery: %v", i, err)
		}
		if !bytes.Equal(got, content(i)) {
			t.Fatalf("lba %d: wrong content after recovery", i)
		}
	}
	return r
}

func TestWALShortWriteSurfacesAndRecovers(t *testing.T) {
	s, dev, cfg := walFaultServer(t)
	sh := blockcomp.NewShaper(0.5)
	// A durable baseline first.
	for i := uint64(0); i < 64; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The next commit is torn mid-write.
	dev.InjectFaults(1, 0, errMedia)
	var commitErr error
	for i := uint64(64); i < 400 && commitErr == nil; i++ {
		commitErr = s.Write(i, sh.Make(i, 4096))
	}
	if commitErr == nil {
		commitErr = s.Flush()
	}
	if commitErr == nil || !errors.Is(commitErr, errMedia) {
		t.Fatalf("short WAL write did not surface: %v", commitErr)
	}
	// Recovery replays the durable prefix; the short write left a torn
	// tail that replay must stop at, not choke on.
	walRecoverAndVerify(t, dev, cfg, 64, func(i uint64) []byte { return sh.Make(i, 4096) })
}

func TestWALFsyncErrorSurfacesAndRecovers(t *testing.T) {
	s, dev, cfg := walFaultServer(t)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 64; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.InjectFaults(0, 1, errMedia)
	var commitErr error
	for i := uint64(64); i < 400 && commitErr == nil; i++ {
		commitErr = s.Write(i, sh.Make(i, 4096))
	}
	if commitErr == nil {
		commitErr = s.Flush()
	}
	if commitErr == nil || !errors.Is(commitErr, errMedia) {
		t.Fatalf("WAL fsync error did not surface: %v", commitErr)
	}
	// A failed fsync keeps the durable image at the previous commit;
	// everything before it must recover.
	walRecoverAndVerify(t, dev, cfg, 64, func(i uint64) []byte { return sh.Make(i, 4096) })
}

func TestWALTornRecordReplayStopsCleanly(t *testing.T) {
	s, dev, cfg := walFaultServer(t)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 64; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last committed record: replay must apply
	// every record before it and stop, without an error.
	if dev.Len() < walFrameSize {
		t.Fatal("no committed WAL records")
	}
	dev.Corrupt(int64(dev.Len() - walFrameSize + walHeaderSize + 1))

	dev.Crash()
	w, err := NewWAL(dev)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = w
	r, err := RecoverServer(cfg)
	if err != nil {
		t.Fatalf("recovery choked on torn record: %v", err)
	}
	rep, err := r.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("inconsistent after torn-record replay: %v", rep.Problems)
	}
	// The torn record's mutation is lost; every earlier record applied.
	if r.LastRecovery().ReplayedRecords == 0 {
		t.Fatal("replay applied nothing before the torn record")
	}
}

// TestContainerWriteFaultLosesNothing: one transient data-SSD write fault
// must cost nothing but the error it returns. A sealed container leaves the
// engine's queue only once it is on the SSD, so the failed write is retried
// ahead of the next batch's containers, reads in between are served from
// engine memory, and the WAL never makes a mapping durable before the
// container it points into.
func TestContainerWriteFaultLosesNothing(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	content := func(i uint64) []byte { return sh.Make(i, 4096) }
	const n = 400
	// drive writes n unique chunks with the first container write failing
	// and returns how many writes reported it.
	drive := func(t *testing.T, s *Server, dssd *ssd.SSD) int {
		t.Helper()
		dssd.InjectFaults(0, 1, errMedia)
		faults := 0
		for i := uint64(0); i < n; i++ {
			if err := s.Write(i, content(i)); err != nil {
				if !errors.Is(err, errMedia) {
					t.Fatalf("write %d: wrong error: %v", i, err)
				}
				faults++
			}
		}
		return faults
	}

	t.Run("volatile", func(t *testing.T) {
		s, _, dssd := faultServer(t)
		if faults := drive(t, s, dssd); faults != 1 {
			t.Fatalf("%d writes returned the media error, want exactly 1", faults)
		}
		// Before anything retries the write, the container is still readable.
		for i := uint64(0); i < n; i++ {
			if got, err := s.Read(i); err != nil || !bytes.Equal(got, content(i)) {
				t.Fatalf("lba %d before flush: err %v, bytes match %v", i, err, err == nil)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < n; i++ {
			if got, err := s.Read(i); err != nil || !bytes.Equal(got, content(i)) {
				t.Fatalf("lba %d after flush: err %v, bytes match %v", i, err, err == nil)
			}
		}
		rep, err := s.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%d problems after a transient container-write fault, first: %s", len(rep.Problems), rep.Problems[0])
		}
	})

	t.Run("wal", func(t *testing.T) {
		s, dev, cfg := walFaultServer(t)
		if faults := drive(t, s, cfg.DataSSD); faults != 1 {
			t.Fatalf("%d writes returned the media error, want exactly 1", faults)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// Crash with no checkpoint: recovery sees only the SSDs and the log.
		walRecoverAndVerify(t, dev, cfg, n, content)
	})
}
