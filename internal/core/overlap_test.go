package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/chunk"
	"fidr/internal/hostmodel"
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
// The four read-mixed FIDR digests moved once more, on purpose, when the
// NIC began to answer reads from the held batch instead of committing it
// first: the SSD images, the WAL and the LBA table stayed equal to the
// parent's at every lane count, and only the read-path counts and the
// ledger moved (reads of the held batch became NIC hits).
// The four CDC FIDR digests moved once more, on purpose, when FIDR began
// to tip as the chunk that fills a batch buffers, as the baseline does,
// instead of after the whole segment: a segment's extents no longer carry
// a batch past BatchChunks, so batch boundaries, and with them container
// layout, moved; the fixed and baseline rows stayed equal.
// All twelve moved once more, on purpose, when both architectures took one
// commit core: FIDR charges one LBA-table op per chunk instead of two per
// unique, and the baseline admits after all of a batch's lookups and logs
// every mapping, so only the ledger, the baseline's table-cache and
// table-SSD counts and its WAL map records changed; the SSD images and the
// LBA table stayed equal to the parent's in every row.
// All twelve moved once more, on purpose, when the commit core began to
// run each entry's lookup, pack, admit and map before the next entry's
// lookup: each insert now finds the bucket line its own lookup loaded, so
// only the table-cache counts, the table-SSD counts, the ledger and the
// order of the WAL's records moved (the same records, in another order);
// the SSD images, the LBA table, Stats, the engine, NIC and data-SSD
// counts and the read-path counts stayed equal to the parent's in every
// row.
// A different digest means a different program to everything but the clock:
// never regenerate one to make an overlap change pass.
var keepBytesGolden = map[string]string{
	"write-l/fixed/fidr-nic-p2p":    "7c62e1407451f3d8af4977f8c323ac6ee30c0ea8cf05fa4edad5cddbfbfccf2f",
	"write-l/fixed/fidr-full":       "b20b6d3d2ee3cf0197dd03ef0e96c5bfbd0c66ca59e8d229fb0420783a1f95a5",
	"write-l/cdc/fidr-nic-p2p":      "67ab5b5378c1a917ece2ea5df67d367ede17cf6b77971f7c73087dd6dcd0511a",
	"write-l/cdc/fidr-full":         "afba9f0b354bd045dfab67af4e4877a62dad3274120fa5c0257e9b17f546c200",
	"read-mixed/fixed/fidr-nic-p2p": "250322ade0642817fa82e51e492926b3c9e651309201b728c6b2741919b085da",
	"read-mixed/fixed/fidr-full":    "8234938570f35ef009e341539cb8058a7640e6964085a9b2deca00e4d513de25",
	"read-mixed/cdc/fidr-nic-p2p":   "4500ecfa9ba7185f2203445c1864e5eb3771eb5e275555e28b7b37a4d5cc67c4",
	"read-mixed/cdc/fidr-full":      "50aec27faf0237fae7b814cb796e38d93b6a28e4fafcb0a5934acb6a136a816b",
	"write-l/fixed/baseline":        "bbda2144b9b4a1e60153bf830fc00674c69eaba1aa76aead1ebe0e7ce628cdfe",
	"write-l/cdc/baseline":          "e1fa45634ed22fb12ce66883272893c7b2c5f4a604e4293c74b508b687fabbcc",
	"read-mixed/fixed/baseline":     "f0c1e3945017a41d70139c9af759979047143a582369d11012619b8364a8ee3e",
	"read-mixed/cdc/baseline":       "af3af90b451a736bd110087841e9c6183cc7b9d5852474d8289772865861448d",
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
	s, tssd, dssd, dev := keepBytesServer(t, chunking, arch, lanes)
	h := sha256.New()
	keepBytesStream(t, s, p, h)
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
	digestImage(t, h, dssd, (s.lba.NextContainer()+1)*uint64(s.cfg.ContainerSize))
	digestImage(t, h, tssd, s.geom.TableBytes())
	return hex.EncodeToString(h.Sum(nil))
}

// keepBytesServer is keepBytesRun's durable server of arch under chunking
// at the given lanes, with its table SSD, data SSD and WAL device.
func keepBytesServer(t *testing.T, chunking chunk.Config, arch Arch, lanes int) (*Server, *ssd.SSD, *ssd.SSD, *MemWALDevice) {
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
	return s, tssd, dssd, dev
}

// keepBytesStream drives p through s and flushes it; on a stream with reads
// it writes the four read-path counts to h after every 1 000th op.
func keepBytesStream(t *testing.T, s *Server, p trace.Params, h io.Writer) {
	t.Helper()
	gen, err := trace.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	// A trace block is a chunk index under fixed chunking and a stream
	// segment at its byte offset under CDC.
	addr := func(lba uint64) uint64 { return lba * uint64(s.cfg.ChunkSize/s.Chunking().Unit()) }
	sh := blockcomp.NewShaper(p.CompressRatio)
	buf := make([]byte, s.cfg.ChunkSize)
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

// TestInsertsReuseTheirLookupLine: each unique's table-cache insert follows
// its own lookup, so it finds the bucket line that lookup loaded and reads
// nothing from the table SSD. On keepBytesRun's write-l stream, fixed
// chunking, 32 cache lines, every table-SSD read is a lookup's miss, on all
// three architectures. Counts only. (With all of a batch's lookups before
// its inserts, an insert whose line a later lookup had evicted read it
// again: 28 033 reads for 17 983 misses.)
func TestInsertsReuseTheirLookupLine(t *testing.T) {
	for _, arch := range []Arch{FIDRNicP2P, FIDRFull, Baseline} {
		s, _, _, _ := keepBytesServer(t, chunk.Config{}, arch, 1)
		keepBytesStream(t, s, trace.WriteL(keepBytesOps), io.Discard)
		if reads, misses := s.TableSSDStats().ReadIOs, s.CacheStats().Misses; reads != misses || misses == 0 {
			t.Errorf("%v: %d table-SSD reads for %d table-cache misses, want one per miss", arch, reads, misses)
		}
	}
}

// overlapServer is a small FIDR server for the count-based tests below:
// 8-chunk batches, four lanes, containers that seal every few batches.
func overlapServer(t *testing.T) *Server { return overlapServerLanes(t, 4) }

// overlapServerLanes is overlapServer at the given hash and compress lanes.
func overlapServerLanes(t *testing.T, lanes int) *Server {
	t.Helper()
	cfg := DefaultConfig(FIDRFull)
	cfg.BatchChunks = 8
	cfg.ContainerSize = 64 << 10
	cfg.HashLanes, cfg.CompressLanes = lanes, lanes
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeferOnlyAcrossReadFreeFills pins the one tip rule by counts, no
// clock: a batch's commit waits for the next tip whether or not a read
// went past the NIC while the batch filled, and only Flush commits early.
// (Reads committed the held batch once; the name is from then.)
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
			if got := s.Stats().BatchesProcessed; got != k-1 {
				t.Fatalf("after tip %d: %d batches committed, want %d (the tipped one waits)", k, got, k-1)
			}
		}
		if got := s.ctr.overlapped.Value(); got != batches-1 {
			t.Fatalf("batches_overlapped = %d on read-interleaved traffic, want %d", got, batches-1)
		}
	})

	t.Run("one read after a write-only stretch", func(t *testing.T) {
		s := overlapServer(t)
		first := next
		writeBatch(t, s, 3*batch+2)
		if st := s.Stats(); st.BatchesProcessed != 2 || !s.wbuf.Held() {
			t.Fatalf("%d batches committed, held %v; want 2 and true", st.BatchesProcessed, s.wbuf.Held())
		}
		// A read the filling buffer answers looks at nothing behind it.
		if _, err := s.Read(next - 1); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.NICReadHits != 1 || st.BatchesProcessed != 2 {
			t.Fatalf("NIC hit: %d hits, %d batches committed; want 1 and 2", st.NICReadHits, st.BatchesProcessed)
		}
		// Nor does one that goes past the NIC: the held batch stays held.
		for i := 0; i < 2; i++ {
			if _, err := s.Read(first); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.BatchesProcessed != 2 || !s.wbuf.Held() {
				t.Fatalf("read %d: %d batches committed, held %v; want 2 and true", i, st.BatchesProcessed, s.wbuf.Held())
			}
		}
		// The buffer now filling saw that read, and its tip still commits
		// only the held batch, under its hash; so does the tip after it.
		writeBatch(t, s, batch-2)
		if st := s.Stats(); st.BatchesProcessed != 3 || !s.wbuf.Held() {
			t.Fatalf("%d batches committed, held %v; want 3 and true", st.BatchesProcessed, s.wbuf.Held())
		}
		writeBatch(t, s, batch)
		if st := s.Stats(); st.BatchesProcessed != 4 || !s.wbuf.Held() {
			t.Fatalf("%d batches committed, held %v; want 4 and true", st.BatchesProcessed, s.wbuf.Held())
		}
		if got := s.ctr.overlapped.Value(); got != 4 {
			t.Fatalf("batches_overlapped = %d, want 4", got)
		}
	})
}

// TestHeldBatchAnswersReads: the NIC answers a read from the held batch —
// tipped, hashed, its commit still to run — and commits nothing for it;
// the filling buffer wins for an LBA written in both; and on
// read-interleaved traffic every commit but the first tip's runs under the
// next batch's hash, with every read returning the bytes last written.
// Counts only, at 1, 2 and 4 lanes.
func TestHeldBatchAnswersReads(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	const batch, batches = 8, 10
	for _, lanes := range []int{1, 2, 4} {
		s := overlapServerLanes(t, lanes)
		content := map[uint64][]byte{}
		write := func(lba, seed uint64) {
			t.Helper()
			content[lba] = sh.Make(seed, 4096)
			if err := s.Write(lba, content[lba]); err != nil {
				t.Fatal(err)
			}
		}
		read := func(lba uint64) {
			t.Helper()
			got, err := s.Read(lba)
			if want, ok := content[lba]; !ok && err != ErrNotFound || ok && (err != nil || !bytes.Equal(got, want)) {
				t.Fatalf("%d lanes: read of LBA %d: err %v, bytes match %v", lanes, lba, err, bytes.Equal(got, content[lba]))
			}
		}
		for lba := uint64(0); lba < batch; lba++ {
			write(lba, lba)
		}
		write(3, 100) // LBA 3 in the fill too
		if !s.wbuf.Held() || s.wbuf.Buffered() != 1 {
			t.Fatalf("%d lanes: held %v, %d chunks filling; want true and 1", lanes, s.wbuf.Held(), s.wbuf.Buffered())
		}
		for _, lba := range []uint64{5, 3} { // the held batch's, then the fill's
			before := s.Stats()
			read(lba)
			after := s.Stats()
			if after.NICReadHits != before.NICReadHits+1 || after.BatchesProcessed != 0 || !s.wbuf.Held() {
				t.Fatalf("%d lanes: read of LBA %d: %d NIC hits, %d batches committed, held %v; want 1, 0 and true",
					lanes, lba, after.NICReadHits-before.NICReadHits, after.BatchesProcessed, s.wbuf.Held())
			}
		}

		// Read-interleaved traffic: after every write a read of the fill,
		// the held batch, one of the first batch's LBAs or an unwritten one.
		for lba := uint64(batch + 1); lba < batches*batch; lba++ {
			write(lba, lba)
			read([]uint64{lba, lba - batch, lba % batch, 1 << 40}[lba%4])
		}
		if st := s.Stats(); st.BatchesProcessed != batches-1 || s.ctr.overlapped.Value() != batches-1 {
			t.Fatalf("%d lanes: %d batches committed, %d overlapped; want %d and %d",
				lanes, st.BatchesProcessed, s.ctr.overlapped.Value(), batches-1, batches-1)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for lba := range content {
			read(lba)
		}
	}
}

// TestNothingRunsAfterWrite: no goroutine outlives the hashing of what is
// buffered by more than a helper's idle spin. The server's pool helpers
// outlive a write only while they hash chunks already buffered — the fill's
// or the held batch's, which a tip leaves to them — and exit once they have
// found nothing to claim for that long, so after each write the count
// returns to where it began.
func TestNothingRunsAfterWrite(t *testing.T) {
	// Helpers of servers earlier tests built exit after their own idle
	// spin; with one P they get to run only when this goroutine yields.
	buf := make([]byte, 1<<20)
	helpers := func() bool {
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "lanes.(*Pool).helper")
	}
	for deadline := time.Now().Add(10 * time.Second); helpers(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("pool helpers from earlier tests still running")
		}
	}
	s := overlapServer(t)
	sh := blockcomp.NewShaper(0.5)
	base := runtime.NumGoroutine()
	for i := uint64(0); i < 10*8; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
		// A helper may still be hashing chunks this write buffered, or
		// spinning idle before it exits, on another CPU or waiting for one
		// on a loaded box; the deadline only bounds how long a leak takes
		// to report.
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

// TestTipHashesNothing pins where a held batch is hashed, by counts, no
// clock: on FIDR-Full with one hash lane no helper runs, the tipping write
// hashes none of the batch it detached, and each of the next BatchChunks
// writes hashes exactly one of its chunks — the one its lookup reads — so
// the write that tips next finds the batch hashed but for its own chunk.
func TestTipHashesNothing(t *testing.T) {
	s := overlapServerLanes(t, 1)
	batch := s.cfg.BatchChunks
	sh := blockcomp.NewShaper(0.5)
	lba := uint64(0)
	write := func() {
		t.Helper()
		if err := s.Write(lba, sh.Make(lba%11, 4096)); err != nil {
			t.Fatal(err)
		}
		lba++
	}
	for range batch {
		write()
	}
	for round := range uint64(4) {
		if !s.wbuf.Held() || s.wbuf.HeldHashed() != 0 {
			t.Fatalf("round %d: the tipping write hashed %d chunks of the batch it detached, want 0", round, s.wbuf.HeldHashed())
		}
		for k := 1; k < batch; k++ {
			write()
			if got := s.wbuf.HeldHashed(); got != k {
				t.Fatalf("round %d: %d writes after the tip hashed %d held chunks, want %d", round, k, got, k)
			}
		}
		write()
		if got := s.Stats().BatchesProcessed; got != round+1 {
			t.Fatalf("round %d: %d batches committed, want %d", round, got, round+1)
		}
	}
}

// TestTipAdmitsNothing pins where a held batch's entries are committed, by
// counts, no clock: on FIDR-Full with one lane, once a batch is held each
// write runs exactly one of its entries through the commit core — one
// LBA-table op and, on this all-unique stream, one admitted chunk — the
// tipping write too, whose entry is the held batch's last. So the tip
// itself admits and maps nothing, and the batch it detaches has no entry
// run. Admissions are UniqueChunks, which counts a batch when it is
// published, plus the held batch's tally.
func TestTipAdmitsNothing(t *testing.T) {
	s := overlapServerLanes(t, 1)
	batch := s.cfg.BatchChunks
	sh := blockcomp.NewShaper(0.5)
	maps := func() uint64 { return s.Ledger().Snapshot().Events[hostmodel.EvLBATableOp] }
	admits := func() uint64 { return s.Stats().UniqueChunks + s.tl.uniques }
	lba := uint64(0)
	write := func() (mapped, admitted uint64) {
		t.Helper()
		m, a := maps(), admits()
		if err := s.Write(lba, sh.Make(lba, 4096)); err != nil {
			t.Fatal(err)
		}
		lba++
		return maps() - m, admits() - a
	}
	for range batch {
		if m, a := write(); m != 0 || a != 0 {
			t.Fatalf("write %d, with no batch held, mapped %d and admitted %d", lba, m, a)
		}
	}
	for round := range uint64(4) {
		for k := 1; k <= batch; k++ {
			if m, a := write(); m != 1 || a != 1 {
				t.Fatalf("round %d: write %d of the fill mapped %d and admitted %d held entries, want 1 and 1", round, k, m, a)
			}
		}
		if h := &s.held; !s.wbuf.Held() || h.next != 0 || h.step != stepLookup {
			t.Fatalf("round %d: the tip left the batch it detached at entry %d, step %d, want none run",
				round, h.next, h.step)
		}
		if got := s.Stats().BatchesProcessed; got != round+1 {
			t.Fatalf("round %d: %d batches committed, want %d", round, got, round+1)
		}
	}
}

// TestFaultDuringOverlappedCommit: a fault that fires in a commit running
// under the next batch's hash returns from that Write and leaves a server
// that retries — the failed batch still held when it failed before
// ScheduleBatch, and the full fill attached — and no batch grows past
// BatchChunks: the next write tips the full fill before it buffers.
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
	// Every batch the NIC scheduled held exactly BatchChunks chunks.
	wholeBatches := func(t *testing.T, s *Server, lanes int) {
		t.Helper()
		st := s.NICStats()
		if st.UniqueSent+st.DuplicateDrops != st.BatchesMade*uint64(s.cfg.BatchChunks) {
			t.Fatalf("%d lanes: %d chunks scheduled in %d batches of %d", lanes,
				st.UniqueSent+st.DuplicateDrops, st.BatchesMade, s.cfg.BatchChunks)
		}
	}

	t.Run("table-SSD read fault in the lookup", func(t *testing.T) {
		for _, lanes := range []int{1, 2, 4} {
			s, tssd, _ := faultServerLanes(t, lanes)
			batch := uint64(s.cfg.BatchChunks)
			i := uint64(0)
			for ; i < 3*batch-1; i++ {
				if err := s.Write(i, content(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Batch 2 is held, hashed; the next write tips batch 3 and
			// commits batch 2 under its hash. Every fingerprint is new, so
			// the commit's first lookup reads a bucket from the table SSD.
			tssd.InjectFaults(1, 0, errMedia)
			err := s.Write(i, content(i))
			i++
			if !errors.Is(err, errMedia) {
				t.Fatalf("tipping write returned %v, want the media error", err)
			}
			if s.ctr.overlapped.Value() != 2 || !s.wbuf.Held() || s.wbuf.Buffered() != int(batch) {
				t.Fatalf("%d lanes: %d commits overlapped, held %v, %d chunks filling; want 2 (the failed one counted), true and %d",
					lanes, s.ctr.overlapped.Value(), s.wbuf.Held(), s.wbuf.Buffered(), batch)
			}
			if got := s.Stats().UniqueChunks; got != batch {
				t.Fatalf("%d chunks committed, want %d: the failed commit must apply nothing", got, batch)
			}
			// The next write tips the full fill first, retrying batch 2's
			// commit under batch 3's hash, and only then buffers.
			for ; i < 4*batch; i++ {
				if err := s.Write(i, content(i)); err != nil {
					t.Fatalf("write %d after the fault cleared: %v", i, err)
				}
			}
			if got := s.Stats().UniqueChunks; got != 3*batch || !s.wbuf.Held() || s.ctr.overlapped.Value() != 4 {
				t.Fatalf("%d lanes: %d chunks committed, held %v, %d overlapped; want %d, true, 4",
					lanes, got, s.wbuf.Held(), s.ctr.overlapped.Value(), 3*batch)
			}
			wholeBatches(t, s, lanes)
			check(t, s, i)
		}
	})

	t.Run("data-SSD write fault in the container write", func(t *testing.T) {
		for _, lanes := range []int{1, 2, 4} {
			s, _, dssd := faultServerLanes(t, lanes)
			dssd.InjectFaults(0, 1, errMedia)
			faults, i := 0, uint64(0)
			for ; i < 400; i++ {
				if err := s.Write(i, content(i)); err != nil {
					if !errors.Is(err, errMedia) {
						t.Fatalf("write %d: %v", i, err)
					}
					faults++
					// The commit that failed ran under a hash, after
					// ScheduleBatch consumed its batch: nothing is held,
					// and the full fill waits for the next write to tip it.
					if s.ctr.overlapped.Value() == 0 || s.wbuf.Held() || s.wbuf.Buffered() != s.cfg.BatchChunks {
						t.Fatalf("%d lanes: fault outside an overlapped commit: %d overlapped, held %v, %d chunks filling",
							lanes, s.ctr.overlapped.Value(), s.wbuf.Held(), s.wbuf.Buffered())
					}
				}
			}
			if faults != 1 {
				t.Fatalf("%d writes returned the media error, want 1", faults)
			}
			wholeBatches(t, s, lanes)
			check(t, s, i)
		}
	})
}

// TestCrashHitCountsOnWriteOnlyStream: deferring a commit does not renumber
// the crash points. Hit h of CrashPostHash still fires in the write that
// tips batch h — now after batch h-1's commit, which ran under the hash —
// and hit h of CrashMidContainerFlush still fires right after the h-th
// container write. CrashPrePack fires once per batch, before its first
// admit: hit h fires in the first write of the fill after batch h's tip,
// which packed batch h's first unique, so h-1 batches are committed and
// (h-1)·8+1 chunks compressed.
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
			case CrashPrePack: // before batch `hit`'s first admit, its first unique packed
				if st.UniqueChunks != uint64((hit-1)*batch) || s.EngineStats().ChunksIn != uint64((hit-1)*batch+1) {
					t.Errorf("%v hit %d: %d chunks committed, %d compressed; want %d and %d",
						stage, hit, st.UniqueChunks, s.EngineStats().ChunksIn, (hit-1)*batch, (hit-1)*batch+1)
				}
			case CrashMidContainerFlush: // right after the hit-th container write
				if got := s.DataSSDStats().WriteIOs; got != uint64(hit) {
					t.Errorf("%v hit %d: %d containers on the SSD, want %d", stage, hit, got, hit)
				}
			}
		}
	}
}
