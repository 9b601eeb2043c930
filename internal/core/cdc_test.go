package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/chunk"
)

// cdcTestConfig builds a small CDC server config.
func cdcTestConfig(arch Arch) Config {
	cfg := DefaultConfig(arch)
	cfg.ContainerSize = 1 << 18
	cfg.Chunking = chunk.Config{Min: 1024, Avg: 4096, Max: 16384}
	return cfg
}

// testMode is the chunking mode as a test input: the durability and model
// tests say "slot i holds content seed s" and the mode decides what that
// is on the wire. Fixed: chunk index i, one 4-KB chunk. CDC: a ragged
// multi-KB stream segment at byte offset i<<20, which the server cuts
// into extents; neighbouring seeds share 4-KB blocks, so segments dedup
// against each other at shifted offsets.
type testMode struct {
	name     string
	chunking chunk.Config
}

var testModes = []testMode{
	{name: "fixed", chunking: chunk.Fixed(4096)},
	{name: "cdc", chunking: chunk.Config{Min: 1024, Avg: 4096, Max: 16384}},
}

func (m testMode) addr(slot uint64) uint64 {
	if m.chunking.Unit() == 1 {
		return slot << 20
	}
	return slot
}

func (m testMode) payload(seed uint64) []byte {
	sh := blockcomp.NewShaper(0.5)
	if m.chunking.Unit() != 1 {
		return sh.Make(seed, 4096)
	}
	var out []byte
	for k := uint64(0); k < 2+seed%4; k++ {
		out = append(out, sh.Make(seed+k, 4096)...)
	}
	return out[:len(out)-int(seed%7)*100]
}

// check reads back every chunk a write of seed's payload at slot left
// behind — the one chunk under fixed chunking, each extent the same chunker
// configuration cuts client-side under CDC — and compares bit-exact.
func (m testMode) check(read func(addr uint64) ([]byte, error), slot, seed uint64) error {
	c, err := m.chunking.NewChunker()
	if err != nil {
		return err
	}
	data := m.payload(seed)
	prev := 0
	for _, b := range c.Boundaries(data) {
		got, err := read(m.addr(slot) + uint64(prev))
		if err != nil {
			return fmt.Errorf("slot %d extent +%d: %w", slot, prev, err)
		}
		if !bytes.Equal(got, data[prev:b]) {
			return fmt.Errorf("slot %d extent +%d: read %d bytes, want the %d written", slot, prev, len(got), b-prev)
		}
		prev = b
	}
	return nil
}

// cdcStream builds a duplicate-rich byte stream: a random base segment
// repeated with a few bytes inserted near the front, the backup-
// generation shape content-defined chunking exists for.
func cdcStream(t *testing.T, size int) ([]byte, []byte) {
	t.Helper()
	base := make([]byte, size)
	rand.New(rand.NewSource(77)).Read(base)
	shifted := append(append([]byte("gen2-hdr"), base[:3000]...), base[3000:]...)
	return base, shifted
}

// TestCDCStreamRoundTrip drives variable-size chunks end to end on both
// architectures: stream writes through the chunker, dedup, compression
// and container packing, then reads every extent back bit-exact and
// checks the reduction-attribution ledger balances.
func TestCDCStreamRoundTrip(t *testing.T) {
	for _, arch := range []Arch{Baseline, FIDRNicP2P, FIDRFull} {
		t.Run(arch.String(), func(t *testing.T) {
			s, err := New(cdcTestConfig(arch))
			if err != nil {
				t.Fatal(err)
			}
			base, shifted := cdcStream(t, 200<<10)

			// Two streams in disjoint extent spaces: generation 2 repeats
			// generation 1 with an 8-byte insertion at the front.
			const gen2Base = 1 << 32
			if err := s.Write(0, base); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(gen2Base, shifted); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}

			// The server's cuts are reproducible client-side: the same
			// chunker configuration yields the extent addresses.
			c := chunk.NewCDC(1024, 4096, 16384)
			for _, st := range []struct {
				baseOff uint64
				data    []byte
			}{{0, base}, {gen2Base, shifted}} {
				prev := 0
				for _, b := range c.Boundaries(st.data) {
					got, err := s.Read(st.baseOff + uint64(prev))
					if err != nil {
						t.Fatalf("read extent %d: %v", prev, err)
					}
					if !bytes.Equal(got, st.data[prev:b]) {
						t.Fatalf("extent %d: read %d bytes, mismatch with stream slice [%d:%d)", prev, len(got), prev, b)
					}
					prev = b
				}
			}

			st := s.Stats()
			if st.DuplicateChunks == 0 {
				t.Fatalf("no duplicate chunks across repeated generations: %+v", st)
			}
			if want := uint64(len(base) + len(shifted)); st.LogicalWriteBytes != want {
				t.Fatalf("LogicalWriteBytes = %d, want %d", st.LogicalWriteBytes, want)
			}
			// CDC resynchronizes after the insertion, so most of gen2
			// should dedup against gen1.
			if st.DedupSavedBytes < uint64(len(shifted))/2 {
				t.Errorf("DedupSavedBytes = %d, want at least half of gen2 (%d)", st.DedupSavedBytes, len(shifted)/2)
			}
			if got := st.DedupSavedBytes + st.CompressionSavedBytes + st.StoredBytes; got != st.LogicalWriteBytes {
				t.Errorf("ledger unbalanced after flush: dedup %d + comp %d + stored %d = %d != logical %d",
					st.DedupSavedBytes, st.CompressionSavedBytes, st.StoredBytes, got, st.LogicalWriteBytes)
			}

			rep, err := s.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("verify: %v", rep.Problems)
			}
		})
	}
}

// TestCDCStreamResumesAcrossBufferDrains shrinks the NIC buffer so one
// segment overflows it repeatedly: the stream must drain mid-segment and
// resume at a chunk boundary with the same cuts a whole-stream chunker
// produces.
func TestCDCStreamResumesAcrossBufferDrains(t *testing.T) {
	cfg := cdcTestConfig(FIDRNicP2P)
	cfg.NICBufferBytes = 4 * cfg.Chunking.Max // minimum Validate allows
	cfg.BatchChunks = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300<<10)
	rand.New(rand.NewSource(3)).Read(data)
	if err := s.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	c := chunk.NewCDC(1024, 4096, 16384)
	bounds := c.Boundaries(data)
	prev := 0
	for _, b := range bounds {
		got, err := s.Read(uint64(prev))
		if err != nil {
			t.Fatalf("read extent %d: %v", prev, err)
		}
		if !bytes.Equal(got, data[prev:b]) {
			t.Fatalf("extent %d mismatch", prev)
		}
		prev = b
	}
	if st := s.Stats(); st.UniqueChunks+st.DuplicateChunks != uint64(len(bounds)) {
		t.Fatalf("processed %d chunks, whole-stream chunker cut %d",
			st.UniqueChunks+st.DuplicateChunks, len(bounds))
	}
}

// TestCDCConfigGates pins what a CDC configuration refuses — an
// oversized Max that cannot fit the 16-bit size fields and an empty
// write — and that ReadRange and Checkpoint are not on that list: a range
// walks consecutive extents, and every chunk's length is in its record.
func TestCDCConfigGates(t *testing.T) {
	cfg := cdcTestConfig(FIDRNicP2P)
	cfg.Chunking.Max = 1 << 16
	cfg.Chunking.Avg = 1 << 15
	if _, err := New(cfg); err == nil {
		t.Error("Max beyond the storable compressed size was accepted")
	}

	cfg = cdcTestConfig(FIDRNicP2P)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, nil); err == nil {
		t.Error("empty stream write was accepted")
	}
	if _, err := s.ReadRange(0, 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReadRange of an unwritten CDC range: %v, want ErrNotFound", err)
	}
	base, _ := cdcStream(t, 64<<10)
	if err := s.Write(0, base); err != nil {
		t.Fatal(err)
	}
	// Before and after the batch commits: 16 chunk-size blocks from byte 0
	// are the segment, whatever extents the chunker cut it into.
	for _, flush := range []bool{false, true} {
		if flush {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := s.ReadRange(0, 16); err != nil || !bytes.Equal(got, base) {
			t.Fatalf("ReadRange over a CDC segment (flushed %v): %d bytes, err %v", flush, len(got), err)
		}
		if got, err := s.ReadRange(0, 3); err != nil || !bytes.Equal(got, base[:3*4096]) {
			t.Fatalf("ReadRange ending inside an extent (flushed %v): %d bytes, err %v", flush, len(got), err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Errorf("Checkpoint on a CDC server: %v", err)
	}
}

// TestCDCOverwriteInvalidatesInteriorExtents is the regression test for
// the §8 read cache under CDC: an overwrite that keeps a segment's first
// chunk but changes what follows must drop the cached copies of the
// interior extents too, not only the one at the segment's start address.
func TestCDCOverwriteInvalidatesInteriorExtents(t *testing.T) {
	cfg := cdcTestConfig(FIDRFull)
	cfg.ReadCacheChunks = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := chunk.NewCDC(1024, 4096, 16384)
	rng := rand.New(rand.NewSource(41))
	gen1 := make([]byte, 96<<10)
	rng.Read(gen1)
	cuts1 := c.Boundaries(gen1)
	// Generation 2 repeats the first chunk byte for byte (so the first
	// cut, and the second extent's address, are the same) and then
	// diverges.
	tail := make([]byte, 64<<10)
	rng.Read(tail)
	gen2 := append(append([]byte(nil), gen1[:cuts1[0]]...), tail...)
	cuts2 := c.Boundaries(gen2)
	if cuts2[0] != cuts1[0] {
		t.Fatalf("first cut moved: %d vs %d", cuts2[0], cuts1[0])
	}
	second := uint64(cuts1[0])

	if err := s.Write(0, gen1); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(second); err != nil || !bytes.Equal(got, gen1[cuts1[0]:cuts1[1]]) {
		t.Fatalf("gen-1 second extent: %v", err)
	}
	if err := s.Write(0, gen2); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, gen2[cuts2[0]:cuts2[1]]) {
		t.Fatalf("after the overwrite the second extent read %d bytes (gen-1's were %d), want gen-2's %d",
			len(got), cuts1[1]-cuts1[0], cuts2[1]-cuts2[0])
	}
}

// TestCDCWriteRefusesAddressWrap: a stream segment is refused whole, before
// anything is buffered, when its last extent's address would pass 2^64-1.
// Accepted, the extents cut past the top wrapped onto the bottom of the
// volume, where they overwrote whatever lived at those low addresses.
func TestCDCWriteRefusesAddressWrap(t *testing.T) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(9)).Read(data)
	for _, arch := range []Arch{Baseline, FIDRFull} {
		t.Run(arch.String(), func(t *testing.T) {
			s, err := New(cdcTestConfig(arch))
			if err != nil {
				t.Fatal(err)
			}
			top := uint64(math.MaxUint64 - 100)
			if err := s.Write(top, data); err == nil {
				t.Fatal("a segment running past the top of the address space was accepted")
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.ClientWrites != 0 || st.UniqueChunks+st.DuplicateChunks != 0 {
				t.Fatalf("the refused write left %d writes, %d chunks", st.ClientWrites, st.UniqueChunks+st.DuplicateChunks)
			}
			// The last byte of the address space still takes a segment.
			if err := s.Write(top, data[:101]); err != nil {
				t.Fatalf("segment ending at 2^64-1: %v", err)
			}
			if got, err := s.Read(top); err != nil || !bytes.Equal(got, data[:101]) {
				t.Fatalf("segment ending at 2^64-1 reads back %d bytes, err %v", len(got), err)
			}
		})
	}
	// Where the unit is the chunk, the one chunk's address is lba itself.
	s, err := New(DefaultConfig(FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(math.MaxUint64, data[:4096]); err != nil {
		t.Fatalf("fixed chunk at the top LBA: %v", err)
	}
}
