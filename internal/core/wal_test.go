package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/fingerprint"
	"fidr/internal/ssd"
)

// walTestDevices builds small injectable SSDs for WAL tests.
func walTestDevices() (*ssd.SSD, *ssd.SSD) {
	tssd := ssd.MustNew(ssd.Config{Name: "tssd", CapacityBytes: 1 << 28, PageSize: 4096,
		ReadBW: 3.5e9, WriteBW: 2.7e9})
	dssd := ssd.MustNew(ssd.Config{Name: "dssd", CapacityBytes: 1 << 28, PageSize: 4096,
		ReadBW: 3.5e9, WriteBW: 2.7e9})
	return tssd, dssd
}

// walTestConfig sizes a server small enough that containers seal and
// cache lines evict within a few hundred writes.
func walTestConfig(arch Arch, tssd, dssd *ssd.SSD, w *WAL) Config {
	cfg := DefaultConfig(arch)
	cfg.ContainerSize = 64 << 10
	cfg.UniqueChunkCapacity = 1 << 14
	cfg.CacheLines = 64
	cfg.BatchChunks = 16
	cfg.TableSSD = tssd
	cfg.DataSSD = dssd
	cfg.WAL = w
	return cfg
}

func TestWALRecordCodec(t *testing.T) {
	rec := WALRecord{
		Kind: WALAppend, Seq: 42, LBA: 7, PBN: 9, Container: 3,
		Offset: 128, CSize: 2048, RawSize: 9000, FP: fingerprint.Of([]byte("x")),
	}
	var frame [walFrameSize]byte
	rec.encode(frame[:])
	got, ok := decodeWALRecord(frame[:])
	if !ok {
		t.Fatal("frame did not decode")
	}
	if got != rec {
		t.Fatalf("round trip mismatch: %+v != %+v", got, rec)
	}
	// A flipped payload byte must fail the CRC.
	frame[walHeaderSize+3] ^= 0xFF
	if _, ok := decodeWALRecord(frame[:]); ok {
		t.Fatal("corrupt frame decoded")
	}
}

func TestWALPrefixCommitHonorsBarriers(t *testing.T) {
	dev := NewMemWALDevice()
	w, err := NewWAL(dev)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO: a blocked record blocks everything behind it, even
	// barrier-free records — commit order must equal mutation order.
	w.stage(WALRecord{Kind: WALAppend, Container: 1}, 2)
	w.stage(WALRecord{Kind: WALMapLBA}, 0)
	if err := w.commit(1); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.AppendedRecords != 0 || st.PendingRecords != 2 {
		t.Fatalf("commit below barrier flushed records: %+v", st)
	}
	if err := w.commit(2); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.AppendedRecords != 2 || st.PendingRecords != 0 || st.Syncs != 1 {
		t.Fatalf("batch commit: %+v", st)
	}
}

func TestWALGroupCommitsUnderOneBarrier(t *testing.T) {
	dev := NewMemWALDevice()
	w, _ := NewWAL(dev)
	w.BeginGroup()
	w.stage(WALRecord{Kind: WALDeleteFP}, 0)
	w.stage(WALRecord{Kind: WALRelocate, Container: 4}, 5)
	w.stage(WALRecord{Kind: WALRetire}, 0)
	w.EndGroup()
	if err := w.commit(4); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.AppendedRecords != 0 {
		t.Fatalf("group leaked records below its max barrier: %+v", st)
	}
	if err := w.commit(5); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.AppendedRecords != 3 {
		t.Fatalf("group did not commit atomically: %+v", st)
	}
}

func TestWALReplayStopsAtTornTail(t *testing.T) {
	dev := NewMemWALDevice()
	w, _ := NewWAL(dev)
	for i := uint64(0); i < 5; i++ {
		w.stage(WALRecord{Kind: WALMapLBA, LBA: i, PBN: i}, 0)
	}
	if err := w.commit(0); err != nil {
		t.Fatal(err)
	}
	// Tear the last record and append trailing garbage.
	dev.Corrupt(int64(4*walFrameSize) + walHeaderSize + 2)
	dev.WriteAt([]byte{0xDE, 0xAD, 0xBE}, int64(5*walFrameSize))
	dev.Sync()

	reopened, err := NewWAL(dev)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	n, err := reopened.Replay(0, func(r WALRecord) error {
		got = append(got, r.LBA)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(got) != 4 || got[3] != 3 {
		t.Fatalf("replay past torn tail: applied %d records (%v)", n, got)
	}
	// Sequence numbering resumes after the last *valid* record.
	if reopened.LastSeq() != 4 {
		t.Fatalf("LastSeq %d after torn tail, want 4", reopened.LastSeq())
	}
}

func TestWALReplaySkipsCheckpointedSeqs(t *testing.T) {
	dev := NewMemWALDevice()
	w, _ := NewWAL(dev)
	for i := uint64(0); i < 6; i++ {
		w.stage(WALRecord{Kind: WALMapLBA, LBA: i}, 0)
	}
	if err := w.commit(0); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	if _, err := w.Replay(4, func(r WALRecord) error {
		got = append(got, r.LBA)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("replay after seq 4 applied %v", got)
	}
}

// TestWALGenesisRecovery crashes before any checkpoint: recovery must
// rebuild everything from the log alone and satisfy every fsck
// invariant.
func TestWALGenesisRecovery(t *testing.T) {
	for _, m := range testModes {
		tssd, dssd := walTestDevices()
		dev := NewMemWALDevice()
		w, _ := NewWAL(dev)
		cfg := walTestConfig(FIDRFull, tssd, dssd, w)
		cfg.Chunking = m.chunking
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 300; i++ {
			seed := i % 120 // duplicates included
			if err := s.Write(m.addr(i), m.payload(seed)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}

		dev.Crash()
		w2, err := NewWAL(dev)
		if err != nil {
			t.Fatal(err)
		}
		cfg.WAL = w2
		r, err := RecoverServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rr := r.LastRecovery()
		if !rr.FromGenesis || rr.ReplayedRecords == 0 {
			t.Fatalf("%s: expected genesis replay, got %+v", m.name, rr)
		}
		rep, err := r.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s: recovered volume inconsistent: %v", m.name, rep.Problems)
		}
		for i := uint64(0); i < 300; i++ {
			if err := m.check(r.Read, i, i%120); err != nil {
				t.Fatalf("%s: recovered wrong content: %v", m.name, err)
			}
		}
	}
}

// TestWALRecoveryAfterCheckpoint replays only the post-checkpoint
// suffix and must not double-apply checkpointed records.
func TestWALRecoveryAfterCheckpoint(t *testing.T) {
	tssd, dssd := walTestDevices()
	dev := NewMemWALDevice()
	w, _ := NewWAL(dev)
	s, err := New(walTestConfig(FIDRFull, tssd, dssd, w))
	if err != nil {
		t.Fatal(err)
	}
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 200; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.DurableBytes != 0 {
		t.Fatalf("checkpoint did not truncate the WAL: %+v", st)
	}
	// Post-checkpoint mutations: overwrites (refcount churn) and fresh
	// content.
	for i := uint64(0); i < 150; i++ {
		if err := s.Write(i, sh.Make(10_000+i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	dev.Crash()
	w2, _ := NewWAL(dev)
	r, err := RecoverServer(walTestConfig(FIDRFull, tssd, dssd, w2))
	if err != nil {
		t.Fatal(err)
	}
	rr := r.LastRecovery()
	if rr.FromGenesis {
		t.Fatal("recovery ignored the checkpoint")
	}
	if rr.ReplayedRecords == 0 {
		t.Fatal("recovery replayed nothing")
	}
	rep, err := r.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("inconsistent after checkpoint+replay: %v", rep.Problems)
	}
	for i := uint64(0); i < 200; i++ {
		want := sh.Make(i, 4096)
		if i < 150 {
			want = sh.Make(10_000+i, 4096)
		}
		got, err := r.Read(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lba %d: wrong content after replay", i)
		}
	}
}

// TestWALSeqRealignsAfterTruncation covers the subtle double-truncation
// case: checkpoint truncates the log, the process restarts (sequence
// counter rescans to 1), and new records must still replay above the
// checkpoint's recorded sequence.
func TestWALSeqRealignsAfterTruncation(t *testing.T) {
	tssd, dssd := walTestDevices()
	dev := NewMemWALDevice()
	w, _ := NewWAL(dev)
	s, err := New(walTestConfig(FIDRFull, tssd, dssd, w))
	if err != nil {
		t.Fatal(err)
	}
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 100; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpSeq := w.LastSeq()
	if ckpSeq == 0 {
		t.Fatal("no WAL records before checkpoint")
	}

	// Clean restart over the truncated log: recovery realigns the
	// sequence counter past the checkpoint.
	dev.Crash()
	w2, _ := NewWAL(dev)
	r, err := RecoverServer(walTestConfig(FIDRFull, tssd, dssd, w2))
	if err != nil {
		t.Fatal(err)
	}
	if w2.LastSeq() < ckpSeq {
		t.Fatalf("WAL seq %d fell below checkpoint seq %d after reopen", w2.LastSeq(), ckpSeq)
	}
	for i := uint64(0); i < 80; i++ {
		if err := r.Write(500+i, sh.Make(777_000+i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	// Second crash: the post-restart records must replay.
	dev.Crash()
	w3, _ := NewWAL(dev)
	r2, err := RecoverServer(walTestConfig(FIDRFull, tssd, dssd, w3))
	if err != nil {
		t.Fatal(err)
	}
	if r2.LastRecovery().ReplayedRecords == 0 {
		t.Fatal("post-truncation records were skipped on replay")
	}
	got, err := r2.Read(500)
	if err != nil || !bytes.Equal(got, sh.Make(777_000, 4096)) {
		t.Fatalf("post-truncation write lost: %v", err)
	}
}

// TestWALRecoveryAfterCompact ensures GC's grouped records replay
// atomically and leave a verifiable volume.
func TestWALRecoveryAfterCompact(t *testing.T) {
	tssd, dssd := walTestDevices()
	dev := NewMemWALDevice()
	w, _ := NewWAL(dev)
	s, err := New(walTestConfig(FIDRFull, tssd, dssd, w))
	if err != nil {
		t.Fatal(err)
	}
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 200; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite half the LBAs to strand dead chunks, then compact.
	for i := uint64(0); i < 100; i++ {
		if err := s.Write(i, sh.Make(50_000+i, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContainersCompacted == 0 {
		t.Fatal("compaction found nothing to do; test needs churn")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	dev.Crash()
	w2, _ := NewWAL(dev)
	r, err := RecoverServer(walTestConfig(FIDRFull, tssd, dssd, w2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("inconsistent after GC replay: %v", rep.Problems)
	}
	for i := uint64(0); i < 200; i++ {
		want := sh.Make(i, 4096)
		if i < 100 {
			want = sh.Make(50_000+i, 4096)
		}
		got, err := r.Read(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("lba %d wrong after GC replay: %v", i, err)
		}
	}
}

func TestRecoverServerTypedErrors(t *testing.T) {
	t.Run("no volume", func(t *testing.T) {
		tssd, dssd := walTestDevices()
		_, err := RecoverServer(walTestConfig(FIDRFull, tssd, dssd, nil))
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("want ErrNoCheckpoint, got %v", err)
		}
		if errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatal("error classes overlap")
		}
	})
	t.Run("no volume with empty WAL", func(t *testing.T) {
		tssd, dssd := walTestDevices()
		w, _ := NewWAL(NewMemWALDevice())
		_, err := RecoverServer(walTestConfig(FIDRFull, tssd, dssd, w))
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("want ErrNoCheckpoint, got %v", err)
		}
	})
	t.Run("corrupt checkpoint body", func(t *testing.T) {
		tssd, dssd := walTestDevices()
		cfg := walTestConfig(FIDRFull, tssd, dssd, nil)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := blockcomp.NewShaper(0.5)
		for i := uint64(0); i < 64; i++ {
			if err := s.Write(i, sh.Make(i, 4096)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Smash the snapshot bytes but keep the magic intact.
		garbage := bytes.Repeat([]byte{0xA5}, 256)
		if err := tssd.Write(s.checkpointOffset()+24, garbage); err != nil {
			t.Fatal(err)
		}
		_, err = RecoverServer(cfg)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
		}
		if errors.Is(err, ErrNoCheckpoint) {
			t.Fatal("error classes overlap")
		}
	})
	t.Run("container size mismatch is corrupt", func(t *testing.T) {
		tssd, dssd := walTestDevices()
		cfg := walTestConfig(FIDRFull, tssd, dssd, nil)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sh := blockcomp.NewShaper(0.5)
		for i := uint64(0); i < 32; i++ {
			if err := s.Write(i, sh.Make(i, 4096)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		bad := cfg
		bad.ContainerSize = 128 << 10
		_, err = RecoverServer(bad)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
		}
	})
	// The old-volume rule: metadata written before chunks recorded their
	// uncompressed length is refused, typed — never restored with a
	// guessed length, never skipped.
	t.Run("pre-length lba snapshot is corrupt", func(t *testing.T) {
		tssd, dssd := walTestDevices()
		cfg := walTestConfig(FIDRFull, tssd, dssd, nil)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(0, blockcomp.NewShaper(0.5).Make(1, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// The lbatable snapshot starts right after the 24-byte header.
		if err := tssd.Write(s.checkpointOffset()+24, []byte("FIDRLBA1")); err != nil {
			t.Fatal(err)
		}
		_, err = RecoverServer(cfg)
		if !errors.Is(err, ErrCorruptCheckpoint) || !strings.Contains(err.Error(), "FIDRLBA1") {
			t.Fatalf("want ErrCorruptCheckpoint naming the old format, got %v", err)
		}
	})
	t.Run("pre-length WAL append frame is corrupt", func(t *testing.T) {
		// An append frame as the old encoder wrote it: a u32 csize, whose
		// high half the new layout reads as an uncompressed length of 0.
		dev := NewMemWALDevice()
		var frame [walFrameSize]byte
		WALRecord{Kind: WALAppend, Seq: 1, LBA: 5, CSize: 700, FP: fingerprint.Of([]byte("old"))}.encode(frame[:])
		dev.WriteAt(frame[:], 0)
		w, err := NewWAL(dev)
		if err != nil {
			t.Fatal(err)
		}
		if w.LastSeq() != 1 {
			t.Fatalf("old frame did not decode: last seq %d", w.LastSeq())
		}
		tssd, dssd := walTestDevices()
		_, err = RecoverServer(walTestConfig(FIDRFull, tssd, dssd, w))
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("want ErrCorruptCheckpoint, got %v", err)
		}
	})
}
