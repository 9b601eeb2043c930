package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/ssd"
)

// commitFaultWrites is the stream length of TestCommitFaultAtEveryTableIO
// and TestCommitFaultAtEveryCompress: three 8-chunk batches and a partial
// one.
const commitFaultWrites = 27

// commitFaultRun writes the stream through a server of arch whose table
// cache holds one line, so every lookup and insert of a bucket other than
// the last reads the table SSD, and every dirty line's eviction writes it.
// The nthRead-th table-SSD read and the nthWrite-th write fail (0: none);
// comp, if not nil, compresses and fails as it is set to. Each write is
// one chunk — a 4-KB block, or under CDC a segment shorter than Min — and
// every fourth repeats the chunk two writes back, a duplicate in the same
// batch or the one before. It checks that every
// chunk reads back after each failed call and after Flush, and that Verify
// is clean, and returns how many calls failed, the server's stats with the
// PBNs it allocated, and its table-SSD IO counts before Verify.
func commitFaultRun(t *testing.T, arch Arch, mode testMode, nthRead, nthWrite int, comp *faultyLZ) (int, commitFaultStats, ssd.Stats) {
	t.Helper()
	tssd, dssd := walTestDevices()
	cfg := DefaultConfig(arch)
	cfg.ContainerSize = 64 << 10
	cfg.CacheLines = 1
	cfg.BatchChunks = 8
	cfg.Chunking = mode.chunking
	cfg.TableSSD, cfg.DataSSD = tssd, dssd
	if comp != nil {
		cfg.Compressor = comp
	}
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
	st, es := s.Stats(), s.EngineStats()
	return faults, commitFaultStats{st.UniqueChunks, st.BatchesProcessed, s.lba.Chunks(),
		st.Mispredictions, s.PredictorStats().Predictions, es.ChunksIn, es.BytesIn}, io
}

// commitFaultStats is what a fault must not change: the unique chunks, the
// batches, the PBNs allocated (a retried admit that took a second PBN
// would leave the first dead), the baseline's mispredictions and
// predictions (a retried batch is predicted once, a chunk mispredicted
// once), and the chunks and bytes the engine compressed (a retry
// compresses only the chunk that failed).
type commitFaultStats struct {
	uniques, batches, pbns, mispredictions, predictions uint64
	compressed, compressedBytes                         uint64
}

// faultyLZ is the LZ compressor whose nth Compress or CompressAppend call
// fails (0: none); calls counts them all. Every compress runs on the
// writer, so one goroutine calls it at a time.
type faultyLZ struct {
	*blockcomp.LZ
	nth   int64
	calls atomic.Int64
}

func (z *faultyLZ) fail() error {
	if z.calls.Add(1) == z.nth {
		return errMedia
	}
	return nil
}

func (z *faultyLZ) Compress(src []byte) ([]byte, error) {
	if err := z.fail(); err != nil {
		return nil, err
	}
	return z.LZ.Compress(src)
}

func (z *faultyLZ) CompressAppend(dst, src []byte) ([]byte, error) {
	if err := z.fail(); err != nil {
		return nil, err
	}
	return z.LZ.CompressAppend(dst, src)
}

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
				_, want, io := commitFaultRun(t, arch, mode, 0, 0, nil)
				if io.ReadIOs == 0 || io.WriteIOs == 0 {
					t.Fatalf("the stream read the table SSD %d times and wrote it %d times", io.ReadIOs, io.WriteIOs)
				}
				check := func(nthRead, nthWrite int) {
					faults, got, _ := commitFaultRun(t, arch, mode, nthRead, nthWrite, nil)
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

// TestCommitFaultAtEveryCompress walks a compressor fault across every
// compress call of the stream — the baseline's FPGA array (each predicted
// unique's compress step), FIDR's packs during the fill and in the commit
// — on Baseline and FIDR-Full, fixed and CDC: exactly one call returns the
// error, every chunk reads back, Verify is clean, the unique, batch, PBN,
// misprediction, prediction and engine counts are the fault-free run's,
// so a retried batch is neither predicted nor mispredicted twice, and the
// faulted run calls the compressor exactly once more than the clean run:
// the retry compresses only the chunk that failed.
func TestCommitFaultAtEveryCompress(t *testing.T) {
	for _, arch := range []Arch{Baseline, FIDRFull} {
		for _, mode := range testModes {
			t.Run(arch.String()+"/"+mode.name, func(t *testing.T) {
				clean := &faultyLZ{LZ: blockcomp.NewLZ()}
				_, want, _ := commitFaultRun(t, arch, mode, 0, 0, clean)
				calls := clean.calls.Load()
				if calls == 0 {
					t.Fatal("the stream compressed nothing")
				}
				for k := int64(1); k <= calls; k++ {
					comp := &faultyLZ{LZ: blockcomp.NewLZ(), nth: k}
					faults, got, _ := commitFaultRun(t, arch, mode, 0, 0, comp)
					if faults != 1 {
						t.Fatalf("compress %d of %d: %d calls returned the error, want 1", k, calls, faults)
					}
					if got != want {
						t.Fatalf("compress %d of %d: %+v, want %+v", k, calls, got, want)
					}
					if n := comp.calls.Load(); n != calls+1 {
						t.Fatalf("compress %d of %d: %d compressor calls, want %d", k, calls, n, calls+1)
					}
				}
			})
		}
	}
}
