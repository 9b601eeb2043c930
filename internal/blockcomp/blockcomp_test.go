package blockcomp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func compressors() []Compressor {
	return []Compressor{NewLZ()}
}

func TestRoundTripAll(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte{0},
		[]byte("hello world"),
		bytes.Repeat([]byte{0xAA}, 4096),
		bytes.Repeat([]byte("abcdefgh"), 512),
	}
	rng := rand.New(rand.NewSource(11))
	r := make([]byte, 4096)
	rng.Read(r)
	inputs = append(inputs, r)

	for _, c := range compressors() {
		for i, in := range inputs {
			out, err := c.Compress(in)
			if err != nil {
				t.Fatalf("%s input %d: compress: %v", c.Name(), i, err)
			}
			back, err := c.Decompress(out, len(in))
			if err != nil {
				t.Fatalf("%s input %d: decompress: %v", c.Name(), i, err)
			}
			if !bytes.Equal(back, in) {
				t.Fatalf("%s input %d: round trip mismatch", c.Name(), i)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, c := range compressors() {
		c := c
		prop := func(data []byte) bool {
			out, err := c.Compress(data)
			if err != nil {
				return false
			}
			back, err := c.Decompress(out, len(data))
			return err == nil && bytes.Equal(back, data)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestCompressibleShrinks(t *testing.T) {
	in := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4096 bytes
	for _, c := range compressors() {
		out, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) >= len(in)/4 {
			t.Errorf("%s: repeated input compressed to %d/%d", c.Name(), len(out), len(in))
		}
	}
}

func TestIncompressibleBounded(t *testing.T) {
	in := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(in)
	for _, c := range compressors() {
		out, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > len(in)+len(in)/8+64 {
			t.Errorf("%s: random input blew up to %d/%d", c.Name(), len(out), len(in))
		}
	}
}

func TestDecompressWrongSize(t *testing.T) {
	in := []byte("some sample content for the codec")
	for _, c := range compressors() {
		out, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decompress(out, len(in)+1); err == nil {
			t.Errorf("%s: oversized expected length accepted", c.Name())
		}
		if len(in) > 0 {
			if _, err := c.Decompress(out, len(in)-1); err == nil {
				t.Errorf("%s: undersized expected length accepted", c.Name())
			}
		}
	}
}

func TestLZRejectsCorruptStream(t *testing.T) {
	lz := NewLZ()
	cases := [][]byte{
		{0x07},                   // unknown token
		{0x01, 0x04, 0x09},       // copy with distance beyond output
		{0x00, 0xFF, 0xFF, 0x7F}, // literal run longer than stream
	}
	for i, in := range cases {
		if _, err := lz.Decompress(in, 100); err == nil {
			t.Errorf("case %d: corrupt stream accepted", i)
		}
	}
}

// TestLZDecompressRejectsNegativeSize: a negative declared size is an
// error from the Compressor contract, not a makeslice panic.
func TestLZDecompressRejectsNegativeSize(t *testing.T) {
	lz := NewLZ()
	good, err := lz.Compress([]byte("some sample data data data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  []byte
		size int
	}{
		{"empty stream", nil, -1},
		{"valid stream", good, -1},
		{"most negative", good, math.MinInt},
	} {
		out, err := lz.Decompress(c.src, c.size)
		if err == nil {
			t.Errorf("%s, size %d: accepted, %d bytes out", c.name, c.size, len(out))
		}
	}
}

func TestLZOverlappingCopy(t *testing.T) {
	// RLE-style data forces overlapping copies (dist < length).
	lz := NewLZ()
	in := bytes.Repeat([]byte{0x42}, 1000)
	out, err := lz.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 64 {
		t.Fatalf("RLE input compressed to only %d bytes", len(out))
	}
	back, err := lz.Decompress(out, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, in) {
		t.Fatal("overlapping copy round trip failed")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(0, 10) != 1 {
		t.Error("Ratio with zero original should be 1")
	}
	if Ratio(100, 50) != 0.5 {
		t.Error("Ratio(100,50) != 0.5")
	}
}

func TestShaperDeterministic(t *testing.T) {
	s := NewShaper(0.5)
	a := s.Make(77, 4096)
	b := s.Make(77, 4096)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different blocks")
	}
	c := s.Make(78, 4096)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical blocks")
	}
}

func TestShaperHitsTargetRatio(t *testing.T) {
	lz := NewLZ()
	for _, target := range []float64{0.25, 0.5, 0.75} {
		s := NewShaper(target)
		var totalIn, totalOut int
		for seed := uint64(0); seed < 32; seed++ {
			in := s.Make(seed, 4096)
			out, err := lz.Compress(in)
			if err != nil {
				t.Fatal(err)
			}
			totalIn += len(in)
			totalOut += len(out)
		}
		got := float64(totalOut) / float64(totalIn)
		if got < target-0.08 || got > target+0.08 {
			t.Errorf("target %.2f: achieved ratio %.3f", target, got)
		}
	}
}

func TestShaperClamps(t *testing.T) {
	if NewShaper(-1).TargetRatio < 0.05 {
		t.Error("ratio not clamped up")
	}
	if NewShaper(2).TargetRatio > 1 {
		t.Error("ratio not clamped down")
	}
}

func TestShaperZeroLength(t *testing.T) {
	NewShaper(0.5).Block(1, nil) // must not panic
}

// BenchmarkLZCompress4K runs the kernel as the compression engine calls
// it: CompressAppend into a recycled buffer, over 64 4-KB payloads at the
// workloads' 0.5 ratio whose seeds, like the workloads', are hashes.
func BenchmarkLZCompress4K(b *testing.B) { benchLZCompress(b, 0.5) }

// BenchmarkLZCompress4KRandom is the same over incompressible payloads:
// the scan alone, with no match to find.
func BenchmarkLZCompress4KRandom(b *testing.B) { benchLZCompress(b, 1) }

func benchLZCompress(b *testing.B, ratio float64) {
	sh, state := NewShaper(ratio), uint64(1)
	ins := make([][]byte, 64)
	for k := range ins {
		ins[k] = sh.Make(splitmix64(&state), 4096)
	}
	lz := NewLZ()
	var dst []byte
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = lz.CompressAppend(dst[:0], ins[i%len(ins)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZDecompress4K(b *testing.B) {
	in := NewShaper(0.5).Make(1, 4096)
	lz := NewLZ()
	out, err := lz.Compress(in)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if _, err := lz.Decompress(out, len(in)); err != nil {
			b.Fatal(err)
		}
	}
}

// plainCompressor hides LZ's append methods, as a custom compressor
// without them would.
type plainCompressor struct{ Compressor }

// TestDecompressAppend: the kernel decodes behind a prefix into spare
// capacity without allocating, and a compressor without append support
// takes the fallback — a copy behind the prefix, or, with nothing to
// append to, Decompress's own slice and no second allocation.
func TestDecompressAppend(t *testing.T) {
	lz := NewLZ()
	want := NewShaper(0.5).Make(3, 4096)
	stream, err := lz.Compress(want)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("frame header")
	buf := make([]byte, 0, len(prefix)+len(want))
	plain := Compressor(plainCompressor{lz})
	for _, c := range []Compressor{lz, plain} {
		got, err := DecompressAppend(c, append(buf, prefix...), stream, len(want))
		if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%T behind a prefix: %d bytes, err %v", c, len(got), err)
		}
		got, err = DecompressAppend(c, nil, stream, len(want))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%T into nil: %d bytes, err %v", c, len(got), err)
		}
	}
	inPlace := testing.AllocsPerRun(100, func() { DecompressAppend(lz, append(buf, prefix...), stream, len(want)) })
	fresh := testing.AllocsPerRun(100, func() { DecompressAppend(plain, nil, stream, len(want)) })
	if inPlace != 0 || fresh != 1 {
		t.Fatalf("allocs per call: %v into spare capacity (want 0), %v through the fallback into nil (want 1)", inPlace, fresh)
	}
}
