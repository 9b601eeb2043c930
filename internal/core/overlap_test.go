package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"slices"
	"testing"
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/chunk"
	"fidr/internal/ssd"
	"fidr/internal/trace"
)

// keepBytesGolden holds the digests of everything a run leaves behind —
// computed at d775cee, the last commit whose write path ran §5.3's steps
// back to back, by running this test there and copying the digests it
// reports (the same at 1, 2 and 4 lanes). The baseline rows were computed
// the same way at 62fa749, the last commit whose baseline cut each write
// in a loop of its own. All twelve were regenerated once, on purpose, when
// the LZ kernel's probe began to skip through incompressible runs (b53eb4b
// is the last commit with the greedy byte-by-byte scan): compressed bytes
// changed, and each new digest came out the same at 1, 2 and 4 lanes.
// A different digest means a different program to everything but the clock:
// never regenerate one to make an overlap change pass.
var keepBytesGolden = map[string]string{
	"write-l/fixed/fidr-nic-p2p":    "65d911a67533ad6cd8fb86f1c17992a0f0be1cd31e1f2982c3a7a5914b7cb8d2",
	"write-l/fixed/fidr-full":       "8187a3357ef0e657d2c661dba1170a321583b5219eddad67beb9a9e451915d5c",
	"write-l/cdc/fidr-nic-p2p":      "1763e06ad7946b262309c048c2c524c80d268e0f1aa67572882c0b3ba36f31b1",
	"write-l/cdc/fidr-full":         "d12f6fcfc146be055e0c5de4d0291de1b29a473ff208e75669592b6496980dce",
	"read-mixed/fixed/fidr-nic-p2p": "b6f0c043ab4bd8e6e72fd16b576038ae802801e1346b82498c4ede5e2e2f5ecc",
	"read-mixed/fixed/fidr-full":    "4d586a17fff42149fb5d1aaeb6db58de2192dd59018149552f4ed31c34a168fa",
	"read-mixed/cdc/fidr-nic-p2p":   "c5e2f1b65da68103e7e1cebdde288caeafebd098b6d4786bbea512c464c9489d",
	"read-mixed/cdc/fidr-full":      "086eb7be0c7cf5d7d0ca26a02a3188e63c2d917f1cf04e1e0cce205d6570439c",
	"write-l/fixed/baseline":        "226f70bc919d4a95cf506960db7340993670410ce0fd97e3a90d7bc1766aef50",
	"write-l/cdc/baseline":          "8187f489347c732293d83071f4485c230d6ea1486688243112c1a43cd2a30bcb",
	"read-mixed/fixed/baseline":     "090dd8172497974776ad4fa111e4854027565ade43aeec1a435ad106b459d581",
	"read-mixed/cdc/baseline":       "2e7c630eda208f618d4d0f454108543299459a2c0440a38a039b07585b71c901",
}

// keepBytesOps is the length of each stream.
const keepBytesOps = 20000

// keepBytesRun drives one 20 000-op stream through a durable server and
// digests what it left: after the final Flush every read-out an operator or
// an experiment sees (Stats, CacheStats, EngineStats, NICStats, both
// ssd.Stats, the host ledger), the WAL device's bytes and the LBA table
// (every mapping in address order with its level-2 record and fingerprint;
// the checkpoint image holds the same facts in map order); then, once the
// table cache's dirty lines are written back, the data-SSD and table-SSD
// images. On a stream with reads the digest also takes the four read-path
// counts after every 1 000th op, which is what "a read observes the state
// it observed before" means.
func keepBytesRun(t *testing.T, p trace.Params, chunking chunk.Config, arch Arch, lanes int) string {
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
	cfg := DefaultConfig(arch)
	cfg.ContainerSize = 256 << 10
	cfg.UniqueChunkCapacity = 1 << 15
	cfg.CacheLines = 32 // a few percent of the table, so lines evict and write back
	cfg.ReadCacheChunks = 128
	cfg.HashLanes, cfg.CompressLanes = lanes, lanes
	cfg.Chunking = chunking
	cfg.TableSSD, cfg.DataSSD, cfg.WAL = tssd, dssd, w
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	// A trace block is a chunk index under fixed chunking and a stream
	// segment at its byte offset under CDC.
	addr := func(lba uint64) uint64 { return lba * uint64(cfg.ChunkSize/s.Chunking().Unit()) }
	h := sha256.New()
	sh := blockcomp.NewShaper(p.CompressRatio)
	buf := make([]byte, cfg.ChunkSize)
	for op := 1; ; op++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		if req.Op == trace.OpWrite {
			sh.Block(req.ContentSeed, buf)
			if err := s.Write(addr(req.LBA), buf); err != nil {
				t.Fatalf("op %d: write: %v", op, err)
			}
		} else if _, err := s.Read(addr(req.LBA)); err != nil && err != ErrNotFound {
			t.Fatalf("op %d: read: %v", op, err)
		}
		if p.ReadFraction > 0 && op%1000 == 0 {
			st := s.Stats()
			fmt.Fprintf(h, "op %d: %d %d %d %d\n", op,
				st.NICReadHits, st.PendingReads, st.ReadCacheHits, s.DataSSDStats().ReadIOs)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The ledger enters as the fields the digests were taken over, in %+v's
	// text; its Events are the counts CPUNanos prices.
	l := s.Ledger().Snapshot()
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n%+v\n%+v\n%+v\n{MemBytes:%v CPUNanos:%v ClientBytes:%d PayloadBytes:%d}\n",
		s.Stats(), s.CacheStats(), s.EngineStats(), s.NICStats(), s.DataSSDStats(), s.TableSSDStats(),
		l.MemBytes, l.CPUNanos, l.ClientBytes, l.PayloadBytes)
	wal := make([]byte, dev.Len())
	if _, err := dev.ReadAt(wal, 0); err != nil && len(wal) > 0 {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "wal %d\n", len(wal))
	h.Write(wal)
	live := s.lba.Mappings()
	lbas := make([]uint64, 0, len(live))
	for lba := range live {
		lbas = append(lbas, lba)
	}
	slices.Sort(lbas)
	for _, lba := range lbas {
		pbn := live[lba]
		pba, err := s.lba.Resolve(pbn)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d %d %+v %x\n", lba, pbn, pba, s.pbnFP[pbn])
	}
	if err := s.cache.FlushAll(); err != nil {
		t.Fatal(err)
	}
	digestImage(t, h, dssd, (s.lba.NextContainer()+1)*uint64(cfg.ContainerSize))
	digestImage(t, h, tssd, s.geom.TableBytes())
	return hex.EncodeToString(h.Sum(nil))
}

// digestImage adds the first n bytes of dev to h.
func digestImage(t *testing.T, h hash.Hash, dev *ssd.SSD, n uint64) {
	t.Helper()
	const step = 1 << 20
	for off := uint64(0); off < n; off += step {
		data, err := dev.Read(off, int(min(step, n-off)))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
}

// TestOverlapKeepsBytes is the fence for overlapping a batch's commit with
// the next batch's hash, and for the one cut loop both architectures share:
// the SSD images, the WAL, every read-out and the read-path counts along
// the way equal the parent's, byte for byte, at any lane count.
func TestOverlapKeepsBytes(t *testing.T) {
	streams := []struct {
		name string
		p    trace.Params
	}{
		{"write-l", trace.WriteL(keepBytesOps)},
		{"read-mixed", trace.ReadMixed(keepBytesOps)},
	}
	chunkers := []struct {
		name string
		cfg  chunk.Config
	}{
		{"fixed", chunk.Config{}},
		{"cdc", chunk.Config{Min: 1024, Avg: 2048, Max: 8192}},
	}
	for _, st := range streams {
		for _, ck := range chunkers {
			for _, arch := range []Arch{FIDRNicP2P, FIDRFull, Baseline} {
				name := st.name + "/" + ck.name + "/" + arch.String()
				t.Run(name, func(t *testing.T) {
					for _, lanes := range []int{1, 2, 4} {
						got := keepBytesRun(t, st.p, ck.cfg, arch, lanes)
						if got != keepBytesGolden[name] {
							t.Errorf("%d lanes: digest %s, want the parent's %s", lanes, got, keepBytesGolden[name])
						}
					}
				})
			}
		}
	}
}

// overlapServer is a small FIDR server for the count-based tests below:
// 8-chunk batches, four lanes, containers that seal every few batches.
func overlapServer(t *testing.T) *Server {
	t.Helper()
	cfg := DefaultConfig(FIDRFull)
	cfg.BatchChunks = 8
	cfg.ContainerSize = 64 << 10
	cfg.HashLanes, cfg.CompressLanes = 4, 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeferOnlyAcrossReadFreeFills pins the rule by counts, no clock: a
// batch's commit waits for the next tip exactly when no read went past the
// NIC while the batch filled.
func TestDeferOnlyAcrossReadFreeFills(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	next := uint64(0)
	writeBatch := func(t *testing.T, s *Server, chunks int) {
		t.Helper()
		for i := 0; i < chunks; i++ {
			if err := s.Write(next, sh.Make(next, 4096)); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	committed := func(s *Server) uint64 { st := s.Stats(); return st.UniqueChunks + st.DuplicateChunks }
	const batch, batches = 8, 10

	t.Run("write-only", func(t *testing.T) {
		s := overlapServer(t)
		for k := uint64(1); k <= batches; k++ {
			writeBatch(t, s, batch)
			if got := s.Stats().BatchesProcessed; got != k-1 {
				t.Fatalf("after tip %d: %d batches committed, want %d (the tipped one waits)", k, got, k-1)
			}
		}
		if got := s.ctr.overlapped.Value(); got != batches-1 {
			t.Fatalf("batches_overlapped = %d, want %d", got, batches-1)
		}
		if got := committed(s); got != (batches-1)*batch {
			t.Fatalf("%d chunks committed before Flush, want %d", got, (batches-1)*batch)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.BatchesProcessed != batches || committed(s) != batches*batch {
			t.Fatalf("after Flush: %d batches, %d chunks; want %d, %d", st.BatchesProcessed, committed(s), batches, batches*batch)
		}
		if got := s.ctr.overlapped.Value(); got != batches-1 {
			t.Fatalf("Flush of an empty buffer overlapped something: batches_overlapped = %d", got)
		}
	})

	t.Run("a read per fill", func(t *testing.T) {
		s := overlapServer(t)
		for k := uint64(1); k <= batches; k++ {
			writeBatch(t, s, batch-1)
			if _, err := s.Read(1 << 40); err != ErrNotFound { // never written: goes past the NIC
				t.Fatalf("read: %v", err)
			}
			writeBatch(t, s, 1)
			if got := s.Stats().BatchesProcessed; got != k {
				t.Fatalf("after tip %d: %d batches committed, want %d (today's path)", k, got, k)
			}
		}
		if got := s.ctr.overlapped.Value(); got != 0 {
			t.Fatalf("batches_overlapped = %d on read-interleaved traffic, want 0", got)
		}
	})

	t.Run("one read after a write-only stretch", func(t *testing.T) {
		s := overlapServer(t)
		first := next
		writeBatch(t, s, 3*batch+2)
		if st := s.Stats(); st.BatchesProcessed != 2 || s.fnic.Waiting() != 1 {
			t.Fatalf("%d batches committed, %d waiting; want 2 and 1", st.BatchesProcessed, s.fnic.Waiting())
		}
		// A read the filling buffer answers looks at nothing behind it.
		if _, err := s.Read(next - 1); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.NICReadHits != 1 || st.BatchesProcessed != 2 {
			t.Fatalf("NIC hit: %d hits, %d batches committed; want 1 and 2", st.NICReadHits, st.BatchesProcessed)
		}
		// One that goes past the NIC settles exactly the one generation.
		for i := 0; i < 2; i++ {
			if _, err := s.Read(first); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.BatchesProcessed != 3 || s.fnic.Waiting() != 0 {
				t.Fatalf("read %d: %d batches committed, %d waiting; want 3 and 0", i, st.BatchesProcessed, s.fnic.Waiting())
			}
		}
		// The buffer now filling saw that read: its tip commits it at once,
		// and the fill after it, which sees none, waits again.
		writeBatch(t, s, batch-2)
		if st := s.Stats(); st.BatchesProcessed != 4 || s.fnic.Waiting() != 0 {
			t.Fatalf("%d batches committed, %d waiting; want 4 and 0", st.BatchesProcessed, s.fnic.Waiting())
		}
		writeBatch(t, s, batch)
		if st := s.Stats(); st.BatchesProcessed != 4 || s.fnic.Waiting() != 1 {
			t.Fatalf("%d batches committed, %d waiting; want 4 and 1", st.BatchesProcessed, s.fnic.Waiting())
		}
		if got := s.ctr.overlapped.Value(); got != 2 {
			t.Fatalf("batches_overlapped = %d, want 2", got)
		}
	})
}

// TestNothingRunsAfterWrite: no goroutine outlives the hashing of what is
// buffered. The NIC's arrival hashers exit once they have caught up with
// the filling buffer, and a tipping write's Join waits for every hash of
// its batch, so after each write the count returns to where it began.
func TestNothingRunsAfterWrite(t *testing.T) {
	s := overlapServer(t)
	sh := blockcomp.NewShaper(0.5)
	base := runtime.NumGoroutine()
	for i := uint64(0); i < 10*8; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
		// An arrival hasher may still be hashing chunks this write
		// buffered, or be running its last instructions after it signalled
		// its join, on another CPU or waiting for one on a loaded box; the
		// deadline only bounds how long a leak takes to report.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() != base && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("after write %d: %d goroutines, %d before the first write", i, n, base)
		}
	}
	if s.ctr.overlapped.Value() == 0 {
		t.Fatal("no commit ran under a hash; the test exercised nothing")
	}
}

// TestFaultDuringOverlappedCommit: a fault that fires in a commit running
// under the next batch's hash returns from that Write and leaves a server
// that retries — the failed generation at the head of the queue, the one
// hashed beside it behind, settled serially and in order by the next tip.
func TestFaultDuringOverlappedCommit(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	content := func(i uint64) []byte { return sh.Make(i, 4096) }
	check := func(t *testing.T, s *Server, n uint64) {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatalf("flush after the fault cleared: %v", err)
		}
		for i := uint64(0); i < n; i++ {
			if got, err := s.Read(i); err != nil || !bytes.Equal(got, content(i)) {
				t.Fatalf("lba %d: err %v, bytes match %v", i, err, err == nil)
			}
		}
		rep, err := s.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%d problems, first: %s", len(rep.Problems), rep.Problems[0])
		}
	}

	t.Run("table-SSD read fault in the lookup", func(t *testing.T) {
		s, tssd, _ := faultServer(t)
		batch := uint64(s.cfg.BatchChunks)
		i := uint64(0)
		for ; i < 3*batch-1; i++ {
			if err := s.Write(i, content(i)); err != nil {
				t.Fatal(err)
			}
		}
		// Generation 2 waits, hashed; the next write tips generation 3 and
		// commits generation 2 under its hash. Every fingerprint is new, so
		// the commit's first lookup reads a bucket from the table SSD.
		tssd.InjectFaults(1, 0, errMedia)
		err := s.Write(i, content(i))
		i++
		if !errors.Is(err, errMedia) {
			t.Fatalf("tipping write returned %v, want the media error", err)
		}
		if s.ctr.overlapped.Value() != 2 || s.fnic.Waiting() != 2 {
			t.Fatalf("%d commits overlapped, %d generations waiting; want 2 (the failed one counted) and 2",
				s.ctr.overlapped.Value(), s.fnic.Waiting())
		}
		if got := s.Stats().UniqueChunks; got != batch {
			t.Fatalf("%d chunks committed, want %d: the failed commit must apply nothing", got, batch)
		}
		// The next tip settles both serially, oldest first, and only then
		// starts hashing again — with nothing left to overlap.
		for ; i < 4*batch; i++ {
			if err := s.Write(i, content(i)); err != nil {
				t.Fatalf("write %d after the fault cleared: %v", i, err)
			}
		}
		if got := s.Stats().UniqueChunks; got != 3*batch || s.fnic.Waiting() != 1 || s.ctr.overlapped.Value() != 2 {
			t.Fatalf("%d chunks committed, %d waiting, %d overlapped; want %d, 1, 2",
				got, s.fnic.Waiting(), s.ctr.overlapped.Value(), 3*batch)
		}
		check(t, s, i)
	})

	t.Run("data-SSD write fault in the container write", func(t *testing.T) {
		s, _, dssd := faultServer(t)
		dssd.InjectFaults(0, 1, errMedia)
		faults, i := 0, uint64(0)
		for ; i < 400; i++ {
			if err := s.Write(i, content(i)); err != nil {
				if !errors.Is(err, errMedia) {
					t.Fatalf("write %d: %v", i, err)
				}
				faults++
				// The commit that failed ran under a hash: its generation
				// was consumed, the one hashed beside it waits.
				if s.ctr.overlapped.Value() == 0 || s.fnic.Waiting() != 1 {
					t.Fatalf("fault outside an overlapped commit: %d overlapped, %d waiting",
						s.ctr.overlapped.Value(), s.fnic.Waiting())
				}
			}
		}
		if faults != 1 {
			t.Fatalf("%d writes returned the media error, want 1", faults)
		}
		check(t, s, i)
	})
}

// TestCrashHitCountsOnWriteOnlyStream: deferring a commit does not renumber
// the crash points. Hit h of CrashPostHash still fires in the write that
// tips batch h — now after batch h-1's commit, which ran under the hash —
// and hit h of CrashPrePack / CrashMidContainerFlush still fires in the
// commit of the h-th batch that reaches it, whichever call runs that commit.
func TestCrashHitCountsOnWriteOnlyStream(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	const batch = 8
	for _, stage := range []CrashStage{CrashPostHash, CrashPrePack, CrashMidContainerFlush} {
		for hit := 1; hit <= 3; hit++ {
			s := overlapServer(t)
			s.ArmCrash(stage, hit)
			var crashedAt uint64
			for i := uint64(1); i <= 40*batch && crashedAt == 0; i++ {
				if err := s.Write(i, sh.Make(i, 4096)); err != nil {
					if !errors.Is(err, ErrCrashInjected) {
						t.Fatal(err)
					}
					crashedAt = i
				}
			}
			if crashedAt == 0 {
				if err := s.Flush(); !errors.Is(err, ErrCrashInjected) {
					t.Fatalf("%v hit %d never fired: %v", stage, hit, err)
				}
			}
			st := s.Stats()
			switch stage {
			case CrashPostHash: // in tip `hit`, batches before it committed
				if crashedAt != uint64(hit*batch) || st.UniqueChunks != uint64((hit-1)*batch) {
					t.Errorf("%v hit %d: fired at write %d with %d chunks committed, want write %d and %d",
						stage, hit, crashedAt, st.UniqueChunks, hit*batch, (hit-1)*batch)
				}
			case CrashPrePack: // in the commit of batch `hit`, which applied nothing
				if st.UniqueChunks != uint64((hit-1)*batch) || s.EngineStats().ChunksIn != uint64(hit*batch) {
					t.Errorf("%v hit %d: %d chunks committed, %d compressed; want %d and %d",
						stage, hit, st.UniqueChunks, s.EngineStats().ChunksIn, (hit-1)*batch, hit*batch)
				}
			case CrashMidContainerFlush: // right after the hit-th container write
				if got := s.DataSSDStats().WriteIOs; got != uint64(hit) {
					t.Errorf("%v hit %d: %d containers on the SSD, want %d", stage, hit, got, hit)
				}
			}
		}
	}
}
