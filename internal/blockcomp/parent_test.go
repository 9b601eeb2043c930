package blockcomp

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"
)

// lzParentStreamsPath holds the length-prefixed inputs and encodings the
// greedy byte-by-byte kernel (the last one before the skipping probe,
// b53eb4b) emitted for goldenCorpus and for 64 4-KB Shaper payloads at
// each of the ratios 0.05, 0.25, 0.5, 0.75 and 1.0 (seeds: successive
// splitmix64 outputs from math.Float64bits(ratio)): each record is a
// uint32 little-endian length and that many bytes, input then encoding.
// Those streams sit in containers, WAL-described chunks and checkpoints
// written before the kernel changed, so they must decode forever. It is
// the reference, not an output: never regenerate it.
const lzParentStreamsPath = "testdata/lz_parent_streams.bin"

// TestLZDecodesParentStreams: every stream the previous kernel wrote
// decodes byte-exact, through the same decoder the read path uses.
func TestLZDecodesParentStreams(t *testing.T) {
	file, err := os.ReadFile(lzParentStreamsPath)
	if err != nil {
		t.Fatal(err)
	}
	next := func() []byte {
		if len(file) < 4 || uint64(binary.LittleEndian.Uint32(file)) > uint64(len(file)-4) {
			t.Fatalf("%s: truncated record", lzParentStreamsPath)
		}
		n := int(binary.LittleEndian.Uint32(file))
		rec := file[4 : 4+n]
		file = file[4+n:]
		return rec
	}
	lz, records := NewLZ(), 0
	for ; len(file) > 0; records++ {
		in, enc := next(), next()
		back, err := lz.Decompress(enc, len(in))
		if err != nil || !bytes.Equal(back, in) {
			t.Fatalf("record %d (%d bytes): parent stream does not decode to its input: %v", records, len(in), err)
		}
	}
	if want := len(goldenCorpus()) + 5*64; records != want {
		t.Fatalf("%d records, want %d", records, want)
	}
}

// lzParentTotals is, per Shaper ratio, the sum of min(len(encoding), 4096)
// over 2 000 4-KB payloads whose seeds are successive splitmix64 outputs
// from state math.Float64bits(ratio), as the greedy byte-by-byte kernel
// (b53eb4b) compressed them. Workload seeds are hashes too; small integer
// seeds give the compressible tail a mostly-zero pattern whose distance-1
// matches no workload produces. The engine stores a chunk raw when its
// encoding is no smaller, hence the min.
var lzParentTotals = []struct {
	ratio float64
	total int
}{
	{0.05, 453994},
	{0.2, 1683994},
	{0.35, 2911997},
	{0.5, 4142001},
	{0.65, 5370005},
	{0.8, 6598004},
	{1.0, 8192000},
}

// TestLZRatioNoWorse: skipping through incompressible runs may only lose
// accidental short matches, which cost more bytes than they save, so no
// ratio's stored total may exceed the greedy kernel's.
func TestLZRatioNoWorse(t *testing.T) {
	lz := NewLZ()
	in := make([]byte, 4096)
	var dst []byte
	for _, p := range lzParentTotals {
		sh, state, total := NewShaper(p.ratio), math.Float64bits(p.ratio), 0
		for k := 0; k < 2000; k++ {
			sh.Block(splitmix64(&state), in)
			dst, _ = lz.CompressAppend(dst[:0], in)
			total += min(len(dst), len(in))
		}
		if total > p.total {
			t.Errorf("ratio %.2f: %d stored bytes, the greedy kernel's %d", p.ratio, total, p.total)
		}
	}
}

// TestLZSkipsIncompressibleRuns counts the table slots one call over 4 KB
// of random bytes writes: the greedy kernel wrote one per position (3 621
// distinct slots here); the skipping probe writes about one per 16 bytes.
func TestLZSkipsIncompressibleRuns(t *testing.T) {
	src := NewShaper(1).Make(42, 4096)
	st := new(lzState)
	st.compress(nil, src) // a first call, so the table holds stale slots
	st.compress(nil, src)
	n := 0
	for _, e := range st.table {
		if e >= st.base-uint32(len(src)) && e < st.base {
			n++
		}
	}
	if n >= 512 {
		t.Fatalf("one call over 4 KB of random bytes wrote %d table slots, want < 512", n)
	}
}
