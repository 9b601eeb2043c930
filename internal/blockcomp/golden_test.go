package blockcomp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// lzGoldenDigest is the SHA-256 over the length-prefixed compressed
// outputs of goldenCorpus. It was taken before the epoch-tagged match
// table and word-at-a-time match extension went in (34916d4), and taken
// again, on purpose, when the probe began to skip through incompressible
// runs with backward catch-up; the greedy scan's streams before that are
// kept in testdata/lz_parent_streams.bin and must still decode. The kernel
// may get faster; it may not emit a different token stream by accident,
// or reduction_ratio, on-SSD bytes and lane determinism all move.
const lzGoldenDigest = "87d22e3cc37192d189db2277dee1dbfd1bf0265c41eb60e27937f535d3ccb443"

// goldenCorpus is a deterministic set of inputs covering what the
// compressor's branches depend on: literal-only, one long match, many
// short matches, self-overlapping (RLE) matches, inputs shorter than a
// match, and a repeat on either side of the 64-KB window.
func goldenCorpus() [][]byte {
	random := func(seed uint64, n int) []byte {
		b := make([]byte, n+8)
		for i := 0; i < n; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], splitmix64(&seed))
		}
		return b[:n]
	}
	var corpus [][]byte
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 100, 511, 1000, 4095, 4096, 4097, 8192, 9000}
	seed := uint64(1)
	for r := 1; r <= 20; r++ {
		sh := NewShaper(float64(r) * 0.05)
		for _, n := range sizes {
			corpus = append(corpus, sh.Make(seed, n))
			seed++
		}
	}
	for _, n := range []int{0, 1, 3, 4, 5, 4096, 70 << 10} {
		corpus = append(corpus, make([]byte, n)) // all-zero
	}
	for _, n := range []int{64, 4096, 9000} { // two-symbol
		b := random(uint64(n), n)
		for i := range b {
			b[i] = 'a' + b[i]&1
		}
		corpus = append(corpus, b)
	}
	for _, n := range []int{1, 4, 5, 100, 4096, 9000, 70 << 10} {
		corpus = append(corpus, random(uint64(n)+99, n))
	}
	for _, period := range []int{1, 2, 3, 4, 5, 7, 8, 13, 100, 1000, 4000} { // self-overlapping
		corpus = append(corpus, bytes.Repeat(random(uint64(period), period), 8200/period+1))
	}
	// ~70 KB around the window: block a repeats just inside 64 KB
	// (matchable), block b just beyond it (not), with short repeats
	// scattered through the filler so the table holds stale and live
	// entries.
	a, b := random(7, 2048), random(8, 2048)
	win := append(append([]byte(nil), a...), b...)
	win = append(win, random(9, lzWindow-500-len(win))...)
	win = append(win, a...)
	win = append(win, random(10, 2000)...)
	win = append(win, b...)
	for off := 5000; off+40 < lzWindow-500; off += 3001 {
		copy(win[off:off+24], win[off-777:])
	}
	return append(corpus, win)
}

// TestLZOutputGolden pins the token stream byte for byte, twice over the
// corpus so the second pass runs on pooled states the first pass used,
// and checks every output decodes back to its input.
func TestLZOutputGolden(t *testing.T) {
	corpus := goldenCorpus()
	lz := NewLZ()
	for pass := 0; pass < 2; pass++ {
		h := sha256.New()
		var dst []byte
		for i, in := range corpus {
			var err error
			if dst, err = lz.CompressAppend(dst[:0], in); err != nil {
				t.Fatal(err)
			}
			var n [4]byte
			binary.LittleEndian.PutUint32(n[:], uint32(len(dst)))
			h.Write(n[:])
			h.Write(dst)
			back, err := lz.Decompress(dst, len(in))
			if err != nil || !bytes.Equal(back, in) {
				t.Fatalf("pass %d input %d (%d bytes): round trip failed: %v", pass, i, len(in), err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != lzGoldenDigest {
			t.Fatalf("pass %d: token stream digest %s, want %s", pass, got, lzGoldenDigest)
		}
	}
}

// TestLZStateWrap drives a state whose base sits a few bytes below the
// 32-bit wrap: the table must be cleared rather than trusted, and the
// calls on either side of the wrap must emit what a fresh state emits.
func TestLZStateWrap(t *testing.T) {
	in := NewShaper(0.5).Make(3, 4096)
	want := new(lzState).compress(nil, in)
	st := &lzState{base: math.MaxUint32 - 4096 - 10}
	for i := range st.table {
		st.table[i] = st.base - 1 - uint32(i%4096) // an earlier call's slots: live again unless the wrap clears them
	}
	for call := 0; call < 3; call++ { // fits below the wrap, crosses it, after it
		if got := st.compress(nil, in); !bytes.Equal(got, want) {
			t.Fatalf("call %d (base now %d): output differs from a fresh state's", call, st.base)
		}
	}
	if st.base >= 3*4096 {
		t.Fatalf("base %d: the state never wrapped", st.base)
	}
}

// TestLZCompressAppendNoAllocs: into a recycled dst the kernel allocates
// nothing — the match table is pooled and emission appends in place.
func TestLZCompressAppendNoAllocs(t *testing.T) {
	lz := NewLZ()
	in := NewShaper(0.5).Make(5, 4096)
	dst, _ := lz.CompressAppend(nil, in)
	if n := testing.AllocsPerRun(200, func() { dst, _ = lz.CompressAppend(dst[:0], in) }); n != 0 {
		t.Fatalf("CompressAppend into a recycled buffer: %v allocs/run, want 0", n)
	}
}
