package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/ssd"
)

// commitFaultWrites is the stream length of TestCommitFaultAtEveryTableIO:
// three 8-chunk batches and a partial one.
const commitFaultWrites = 27

// commitFaultRun writes the stream through a server of arch whose table
// cache holds one line, so every lookup and insert of a bucket other than
// the last reads the table SSD, and every dirty line's eviction writes it.
// The nthRead-th table-SSD read and the nthWrite-th write fail (0: none).
// Each write is one chunk — a 4-KB block, or under CDC a segment shorter
// than Min — and every fourth repeats the chunk two writes back, a
// duplicate in the same batch or the one before. It checks that every
// chunk reads back after each failed call and after Flush, and that Verify
// is clean, and returns how many calls failed, the server's stats with the
// PBNs it allocated, and its table-SSD IO counts before Verify.
func commitFaultRun(t *testing.T, arch Arch, mode testMode, nthRead, nthWrite int) (int, commitFaultStats, ssd.Stats) {
	t.Helper()
	tssd, dssd := walTestDevices()
	cfg := DefaultConfig(arch)
	cfg.ContainerSize = 64 << 10
	cfg.CacheLines = 1
	cfg.BatchChunks = 8
	cfg.Chunking = mode.chunking
	cfg.TableSSD, cfg.DataSSD = tssd, dssd
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := blockcomp.NewShaper(0.5)
	payload := func(i uint64) []byte {
		if i%4 == 3 {
			i -= 2
		}
		if mode.chunking.Unit() == 1 {
			return sh.Make(i, 600+int(i%5)*80)
		}
		return sh.Make(i, 4096)
	}
	readBack := func(n uint64, when string) {
		t.Helper()
		for i := uint64(0); i < n; i++ {
			if got, err := s.Read(mode.addr(i)); err != nil || !bytes.Equal(got, payload(i)) {
				t.Fatalf("read %d, write %d %s: err %v, bytes match %v", nthRead, nthWrite, when, err, err == nil)
			}
		}
	}
	tssd.InjectFaultAt(nthRead, nthWrite, errMedia)
	faults := 0
	failed := func(err error, i uint64, when string) {
		t.Helper()
		if !errors.Is(err, errMedia) {
			t.Fatalf("read %d, write %d: %s: %v", nthRead, nthWrite, when, err)
		}
		faults++
		readBack(i, "after the failure")
	}
	for i := uint64(0); i < commitFaultWrites; i++ {
		if err := s.Write(mode.addr(i), payload(i)); err != nil {
			failed(err, i+1, fmt.Sprintf("write %d", i))
		}
	}
	for try := 0; try < 2; try++ {
		err := s.Flush()
		if err == nil {
			break
		}
		failed(err, commitFaultWrites, "flush")
	}
	readBack(commitFaultWrites, "after Flush")
	io := s.TableSSDStats()
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("read %d, write %d: %d problems, first: %s", nthRead, nthWrite, len(rep.Problems), rep.Problems[0])
	}
	st := s.Stats()
	return faults, commitFaultStats{st.UniqueChunks, st.BatchesProcessed, s.lba.Chunks()}, io
}

// commitFaultStats is what a fault must not change: the unique chunks, the
// batches, and the PBNs allocated (a retried admit that took a second PBN
// would leave the first dead).
type commitFaultStats struct{ uniques, batches, pbns uint64 }

// TestCommitFaultAtEveryTableIO walks a table-SSD fault across every IO of
// every commit — the lookups, the inserts and the dirty lines they evict —
// read faults and write faults apart, on Baseline and FIDR-Full, fixed and
// CDC: exactly one call returns the error, nothing acknowledged is lost,
// and the retried commit resumes where it failed, so every chunk reads
// back, Verify is clean, and the unique, batch and PBN counts are the
// fault-free run's.
func TestCommitFaultAtEveryTableIO(t *testing.T) {
	for _, arch := range []Arch{Baseline, FIDRFull} {
		for _, mode := range testModes {
			t.Run(arch.String()+"/"+mode.name, func(t *testing.T) {
				_, want, io := commitFaultRun(t, arch, mode, 0, 0)
				if io.ReadIOs == 0 || io.WriteIOs == 0 {
					t.Fatalf("the stream read the table SSD %d times and wrote it %d times", io.ReadIOs, io.WriteIOs)
				}
				check := func(nthRead, nthWrite int) {
					faults, got, _ := commitFaultRun(t, arch, mode, nthRead, nthWrite)
					if faults != 1 {
						t.Fatalf("read %d, write %d: %d calls returned the error, want 1", nthRead, nthWrite, faults)
					}
					if got != want {
						t.Fatalf("read %d, write %d: %+v, want %+v", nthRead, nthWrite, got, want)
					}
				}
				for k := 1; k <= int(io.ReadIOs); k++ {
					check(k, 0)
				}
				for k := 1; k <= int(io.WriteIOs); k++ {
					check(0, k)
				}
			})
		}
	}
}
