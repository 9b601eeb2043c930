package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/chunk"
	"fidr/internal/trace/span"
)

// cursorServer is overlapServerLanes of arch under the given chunking.
func cursorServer(t *testing.T, arch Arch, chunking chunk.Config, lanes int) *Server {
	t.Helper()
	cfg := DefaultConfig(arch)
	cfg.BatchChunks = 8
	cfg.ContainerSize = 64 << 10
	cfg.Chunking = chunking
	cfg.HashLanes, cfg.CompressLanes = lanes, lanes
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cursorWriter writes one-extent writes: a 4-KB chunk at the next LBA
// under fixed chunking, a segment shorter than CDC's Min at the next
// stream offset under CDC, so every batch holds BatchChunks chunks either
// way, and a write that tips holds the tipping chunk only. Seeds repeat,
// so batches hold duplicates of earlier batches and of their own chunks,
// unless unique is set.
type cursorWriter struct {
	s       *Server
	sh      *blockcomp.Shaper
	n, addr uint64
	written uint64 // chunks buffered so far
	unique  bool
}

// write issues the next write and returns how many chunks it buffered.
func (w *cursorWriter) write(t *testing.T) uint64 {
	t.Helper()
	size := 4096
	if w.s.cfg.Chunking.Unit() == 1 {
		size = 600 + int(w.n%5)*80
	}
	seed := w.n % 13
	if w.unique {
		seed = w.n
	}
	if err := w.s.Write(w.addr, w.sh.Make(seed, size)); err != nil {
		t.Fatal(err)
	}
	w.n++
	w.addr += uint64(size / w.s.cfg.Chunking.Unit())
	chunks := uint64(len(w.s.cbounds))
	w.written += chunks
	return chunks
}

func lookups(s *Server) uint64 { return s.CacheStats().Lookups }

func committedChunks(s *Server) uint64 {
	st := s.Stats()
	return st.UniqueChunks + st.DuplicateChunks
}

// TestHeldLookupsRunDuringFill pins where the held batch's table lookups
// run, by counts, no clock: once a batch is held, every write raises the
// table cache's lookups by exactly the chunks it buffered — the tipping
// write too, so the commit of a full fill runs none — and Flush or
// Compact issued mid-fill run the lookups the fill had not reached. Fixed
// and CDC chunking, at 1, 2 and 4 lanes.
func TestHeldLookupsRunDuringFill(t *testing.T) {
	const batch, batches, partial = 8, 6, 3
	for _, mode := range testModes {
		for _, lanes := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/lanes%d", mode.name, lanes), func(t *testing.T) {
				newWriter := func() *cursorWriter {
					return &cursorWriter{s: cursorServer(t, FIDRFull, mode.chunking, lanes), sh: blockcomp.NewShaper(0.5)}
				}
				w := newWriter()
				s := w.s
				tips := 0
				for w.written < batches*batch {
					held, before, committed := s.wbuf.Held(), lookups(s), committedChunks(s)
					chunks := w.write(t)
					want := uint64(0)
					if held {
						want = chunks
					}
					if got := lookups(s) - before; got != want {
						t.Fatalf("write %d (held %v) buffered %d chunks and ran %d lookups, want %d", w.n, held, chunks, got, want)
					}
					if held && committedChunks(s) != committed {
						tips++
					}
				}
				if tips != batches-1 {
					t.Fatalf("%d tipping writes committed a batch, want %d", tips, batches-1)
				}
				if got := lookups(s); got != committedChunks(s) || got != (batches-1)*batch {
					t.Fatalf("%d lookups after full fills, %d chunks committed; want %d each", got, committedChunks(s), (batches-1)*batch)
				}

				// Flush mid-fill: the held batch's remaining lookups and
				// every one of the partial fill's.
				for i := 0; i < partial; i++ {
					w.write(t)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if got := lookups(s); got != w.written || committedChunks(s) != w.written {
					t.Fatalf("after Flush: %d lookups, %d chunks committed; want %d each", got, committedChunks(s), w.written)
				}

				// Compact mid-fill: the held batch's remaining lookups;
				// the partial fill's chunks wait in the fill, looked up
				// by nothing yet.
				w = newWriter()
				s = w.s
				for w.written < 2*batch+partial {
					w.write(t)
				}
				before := lookups(s)
				if _, err := s.Compact(0); err != nil {
					t.Fatal(err)
				}
				if got := lookups(s) - before; got != batch-partial || s.wbuf.Held() {
					t.Fatalf("Compact ran %d lookups, held %v; want %d and false", got, s.wbuf.Held(), batch-partial)
				}
				if got := lookups(s); got != committedChunks(s) || got != 2*batch {
					t.Fatalf("after Compact: %d lookups, %d chunks committed; want %d each", got, committedChunks(s), 2*batch)
				}
			})
		}
	}
}

// TestCDCSegmentsTipInsideFill: a CDC segment whose extents straddle a
// batch boundary tips the batch at the extent that fills it, as the
// baseline does, so no batch holds more than BatchChunks chunks and every
// chunk buffered while a batch is held runs exactly one of its lookups:
// a write raises the lookups by the chunks it buffered, whatever tips it
// made, so no tip's commit found a lookup left to run. Counts only, at 1,
// 2 and 4 lanes, over 20 000-byte segments of about five extents each.
func TestCDCSegmentsTipInsideFill(t *testing.T) {
	const batch, segments, segBytes = 8, 60, 20000
	for _, lanes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			s := cursorServer(t, FIDRFull, testModes[1].chunking, lanes)
			sh := blockcomp.NewShaper(0.5)
			addr, straddled := uint64(0), 0
			for i := uint64(0); i < segments; i++ {
				held, before, filling := s.wbuf.Held(), lookups(s), s.wbuf.Buffered()
				if err := s.Write(addr, sh.Make(i%17, segBytes)); err != nil {
					t.Fatal(err)
				}
				addr += segBytes
				chunks := uint64(len(s.cbounds))
				if filling+int(chunks) > batch {
					straddled++
				}
				if n := len(s.wbuf.Head()); s.wbuf.Held() && n != batch {
					t.Fatalf("segment %d: held batch of %d chunks, want %d", i, n, batch)
				}
				if s.wbuf.Buffered() >= batch {
					t.Fatalf("segment %d left %d chunks filling, a full batch untipped", i, s.wbuf.Buffered())
				}
				if got := lookups(s) - before; held && got != chunks {
					t.Fatalf("segment %d buffered %d chunks and ran %d lookups, want %d", i, chunks, got, chunks)
				}
			}
			if straddled < segments/4 {
				t.Fatalf("only %d of %d segments straddled a batch boundary", straddled, segments)
			}
			if st := s.NICStats(); st.UniqueSent+st.DuplicateDrops != batch*st.BatchesMade {
				t.Fatalf("%d batches scheduled %d chunks, want %d each", st.BatchesMade, st.UniqueSent+st.DuplicateDrops, batch)
			}
			// The filling chunks ran the held batch's first lookups.
			if got, fill := lookups(s), uint64(s.wbuf.Buffered()); got != committedChunks(s)+fill {
				t.Fatalf("%d lookups, %d chunks committed; want %d more, one per filling chunk", got, committedChunks(s), fill)
			}
		})
	}
}

// TestLookupFaultDuringFill: a table-SSD fault met by a lookup during the
// fill fails no write — the chunk is buffered and acked — and the next tip
// returns it, commits nothing, and leaves the batch held and the fill
// full; the write after that retries from the failed lookup and commits.
// Every LBA then reads back, Verify is clean, and the data SSD holds the
// bytes a fault-free run leaves.
func TestLookupFaultDuringFill(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	content := func(i uint64) []byte { return sh.Make(i, 4096) }
	run := func(t *testing.T, lanes int, fault bool) string {
		t.Helper()
		s, tssd, dssd := faultServerLanes(t, lanes)
		batch := uint64(s.cfg.BatchChunks)
		write := func(i uint64) error { return s.Write(i, content(i)) }
		i := uint64(0)
		for ; i < batch+batch/2; i++ {
			if err := write(i); err != nil {
				t.Fatal(err)
			}
		}
		if fault {
			// Every fingerprint is new: the held batch's next lookup
			// reads its bucket from the table SSD.
			tssd.InjectFaults(1, 0, errMedia)
			if err := write(i); err != nil {
				t.Fatalf("write that met the lookup fault returned %v", err)
			}
			i++
			if !errors.Is(s.held.fillErr, errMedia) {
				t.Fatalf("the write's lookup did not meet the fault: %v", s.held.fillErr)
			}
			for ; i < 2*batch-1; i++ {
				if err := write(i); err != nil {
					t.Fatalf("write %d after the lookup fault: %v", i, err)
				}
			}
			if err := write(i); !errors.Is(err, errMedia) {
				t.Fatalf("tipping write returned %v, want the media error", err)
			}
			i++
			if committedChunks(s) != 0 || !s.wbuf.Held() || s.wbuf.Buffered() != int(batch) {
				t.Fatalf("after the failed tip: %d chunks committed, held %v, %d filling; want 0, true, %d",
					committedChunks(s), s.wbuf.Held(), s.wbuf.Buffered(), batch)
			}
			if err := write(i); err != nil {
				t.Fatalf("write after the failed tip: %v", err)
			}
			i++
			if committedChunks(s) != batch || !s.wbuf.Held() || s.wbuf.Buffered() != 1 {
				t.Fatalf("after the retried tip: %d chunks committed, held %v, %d filling; want %d, true, 1",
					committedChunks(s), s.wbuf.Held(), s.wbuf.Buffered(), batch)
			}
		}
		for ; i < 4*batch+3; i++ {
			if err := write(i); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for lba := uint64(0); lba < i; lba++ {
			if got, err := s.Read(lba); err != nil || !bytes.Equal(got, content(lba)) {
				t.Fatalf("lba %d: err %v, bytes match %v", lba, err, err == nil)
			}
		}
		rep, err := s.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%d problems, first: %s", len(rep.Problems), rep.Problems[0])
		}
		h := sha256.New()
		st := s.Stats()
		fmt.Fprintf(h, "%d %d %d\n", st.UniqueChunks, st.DuplicateChunks, st.StoredBytes)
		digestImage(t, h, dssd, (s.lba.NextContainer()+1)*uint64(s.cfg.ContainerSize))
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, lanes := range []int{1, 2, 4} {
		if got, want := run(t, lanes, true), run(t, lanes, false); got != want {
			t.Fatalf("%d lanes: stored state %s after the fault, %s without it", lanes, got, want)
		}
	}
}

// TestBatchTraceKeepsFillLookups: a batch whose lookups all ran while the
// next batch filled still reports them in its batch trace, as the
// dedup_lookup stage. Presence only: no duration is asserted.
func TestBatchTraceKeepsFillLookups(t *testing.T) {
	s := overlapServer(t)
	s.EnableObservability(nil)
	col := span.NewCollector(64, 0, 0)
	s.SetSpanCollector(col, 0)
	sh := blockcomp.NewShaper(0.5)
	const batch = 8
	for i := uint64(0); i < 3*batch; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
		if i == 2*batch-2 && lookups(s) != batch-1 {
			t.Fatalf("%d lookups before the tip, want %d: the fill did not run them", lookups(s), batch-1)
		}
	}
	batches := 0
	for _, q := range col.Recent() {
		if q.Op() != "batch" {
			continue
		}
		batches++
		found := false
		for _, st := range q.Stages {
			found = found || st.Name == StageDedupLookup.String()
		}
		if !found {
			t.Errorf("batch trace without a %s stage: %+v", StageDedupLookup, q.Stages)
		}
	}
	if batches != 2 {
		t.Fatalf("%d batch traces, want the 2 committed batches", batches)
	}
}

// flagged counts the held batch's looked-up first-claim uniques.
func flagged(s *Server) uint64 {
	var n uint64
	if s.wbuf.Held() {
		looked := s.held.next
		if s.held.step != stepLookup {
			looked++
		}
		for _, f := range s.held.flags[:looked] {
			if f {
				n++
			}
		}
	}
	return n
}

// TestHeldPacksRunDuringFill pins where step 8's compress and pack run, by
// counts, no clock: every chunk the engine has compressed is a looked-up
// first-claim unique, of a committed batch or of the held one, so once a
// batch is held each write raises EngineStats().ChunksIn by exactly the
// uniques its own lookups flagged — the tipping write's commit, on a full
// fill, compresses nothing of its own — and no write leaves an entry
// stopped mid-step. Flush mid-fill compresses the rest.
// Fixed and CDC chunking, at 1, 2 and 4 lanes.
func TestHeldPacksRunDuringFill(t *testing.T) {
	const batch, batches, partial = 8, 6, 3
	for _, mode := range testModes {
		for _, lanes := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/lanes%d", mode.name, lanes), func(t *testing.T) {
				w := &cursorWriter{s: cursorServer(t, FIDRFull, mode.chunking, lanes), sh: blockcomp.NewShaper(0.5)}
				s := w.s
				tips := 0
				for w.written < batches*batch {
					held := s.wbuf.Held()
					c0, u0, f0 := s.EngineStats().ChunksIn, s.Stats().UniqueChunks, flagged(s)
					w.write(t)
					c1, u1, f1 := s.EngineStats().ChunksIn, s.Stats().UniqueChunks, flagged(s)
					// What the write's lookups flagged: in the batch it
					// committed, if it tipped, from the cursor on; and in
					// the batch held now.
					if c1-c0 != u1-u0-f0+f1 {
						t.Fatalf("write %d compressed %d chunks; its lookups flagged %d", w.n, c1-c0, u1-u0-f0+f1)
					}
					if s.held.step != stepLookup {
						t.Fatalf("write %d left entry %d stopped at step %d", w.n, s.held.next, s.held.step)
					}
					if held && u1 != u0 {
						tips++
					}
				}
				if tips == 0 {
					t.Fatal("no tipping write committed a unique chunk; the test exercised nothing")
				}
				for i := 0; i < partial; i++ {
					w.write(t)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if got, want := s.EngineStats().ChunksIn, s.Stats().UniqueChunks; got != want {
					t.Fatalf("after Flush: %d chunks compressed, %d unique chunks committed", got, want)
				}
			})
		}
	}
}

// TestBatchTraceKeepsFillPacks: a batch whose uniques were compressed and
// packed while the next batch filled still reports that work in its batch
// trace, as the compress stage, starting before the commit that opened the
// trace. No duration is asserted.
func TestBatchTraceKeepsFillPacks(t *testing.T) {
	s := overlapServer(t)
	s.EnableObservability(nil)
	col := span.NewCollector(64, 0, 0)
	s.SetSpanCollector(col, 0)
	sh := blockcomp.NewShaper(0.5)
	const batch = 8
	for i := uint64(0); i < 3*batch; i++ {
		if err := s.Write(i, sh.Make(i, 4096)); err != nil {
			t.Fatal(err)
		}
		if i == 2*batch-2 && s.EngineStats().ChunksIn != batch-1 {
			t.Fatalf("%d chunks compressed before the tip, want %d: the fill did not pack them", s.EngineStats().ChunksIn, batch-1)
		}
	}
	batches := 0
	for _, q := range col.Recent() {
		if q.Op() != "batch" {
			continue
		}
		batches++
		found := false
		for _, st := range q.Stages {
			found = found || st.Name == StageCompress.String() && st.Start.Before(q.Root.Start)
		}
		if !found {
			t.Errorf("batch trace without a %s stage from the fill: %+v", StageCompress, q.Stages)
		}
	}
	if batches != 2 {
		t.Fatalf("%d batch traces, want the 2 committed batches", batches)
	}
}
