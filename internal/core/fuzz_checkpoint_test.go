package core

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/ssd"
)

// checkpointedServer writes, overwrites and compacts a small volume on
// tssd, checkpoints it, and returns the server.
func checkpointedServer(tb testing.TB, tssd, dssd *ssd.SSD) *Server {
	tb.Helper()
	s, err := New(walTestConfig(FIDRFull, tssd, dssd, nil))
	if err != nil {
		tb.Fatal(err)
	}
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 48; i++ {
		if err := s.Write(i%32, sh.Make(i%20, 4096)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Compact(0); err != nil {
		tb.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestCorruptCheckpointLengthRefused: the snapshot length in a checkpoint
// header is checked against the bytes the table volume holds before it
// sizes a read. The volume here addresses 1 TiB, as fidrd's in-memory and
// file volumes do, so a length of 2^38 used to pass a check against the
// device's capacity and its allocation ended the process.
func TestCorruptCheckpointLengthRefused(t *testing.T) {
	_, dssd := walTestDevices()
	tssd := ssd.MustNew(ssd.Samsung970Pro("tssd"))
	s := checkpointedServer(t, tssd, dssd)
	var field [8]byte
	binary.LittleEndian.PutUint64(field[:], 1<<38)
	if err := tssd.Write(s.checkpointOffset()+16, field[:]); err != nil {
		t.Fatal(err)
	}
	_, err := RecoverServer(walTestConfig(FIDRFull, tssd, dssd, nil))
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
	}
}

// allocatedBy returns the bytes fn allocated on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzCheckpointImage writes arbitrary bytes at the checkpoint offset of a
// small table volume and recovers a server from it. Recovery must return a
// server or an error that is ErrCorruptCheckpoint or ErrNoCheckpoint —
// never panic, never an untyped error — and no length field may size an
// allocation past what the volume holds: recovery allocates what building
// a server costs plus a bounded multiple of the volume's bytes.
//
// CI runs this bounded (make fuzz); run `go test -fuzz FuzzCheckpointImage
// ./internal/core/` for an open-ended session.
func FuzzCheckpointImage(f *testing.F) {
	tssd, dssd := walTestDevices()
	s := checkpointedServer(f, tssd, dssd)
	off := s.checkpointOffset()
	hdr, err := tssd.Read(off, 24)
	if err != nil {
		f.Fatal(err)
	}
	snapLen := binary.LittleEndian.Uint64(hdr[16:])
	fpHdr, err := tssd.Read(off+24+snapLen, 8)
	if err != nil {
		f.Fatal(err)
	}
	nFP := binary.LittleEndian.Uint64(fpHdr)
	img, err := tssd.Read(off, int(24+snapLen+8+nFP*32))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := RecoverServer(walTestConfig(FIDRFull, tssd, dssd, nil)); err != nil {
		f.Fatalf("the seed image does not recover: %v", err)
	}
	f.Add(img)
	// The v1 layout: its magic, then the snapshot length, without the WAL
	// sequence field.
	f.Add(append(append([]byte(nil), ckpMagicV1[:]...), img[16:]...))
	f.Add(make([]byte, 64))

	// What recovery costs over a volume with no checkpoint: building the
	// server alone.
	base := allocatedBy(func() {
		tssd, dssd := walTestDevices()
		_, _ = RecoverServer(walTestConfig(FIDRFull, tssd, dssd, nil))
	})

	f.Fuzz(func(t *testing.T, img []byte) {
		tssd, dssd := walTestDevices()
		if err := tssd.Write(off, img); err != nil {
			t.Skip("image does not fit the volume")
		}
		held := uint64(tssd.StoredPages()) * uint64(tssd.Config().PageSize)
		var err error
		grew := allocatedBy(func() {
			_, err = RecoverServer(walTestConfig(FIDRFull, tssd, dssd, nil))
		})
		if err != nil && !errors.Is(err, ErrCorruptCheckpoint) && !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("untyped recovery error: %v", err)
		}
		if limit := 2*base + 64*held; grew > limit {
			t.Fatalf("recovery allocated %d bytes from a volume holding %d (limit %d)", grew, held, limit)
		}
	})
}
