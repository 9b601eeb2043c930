package blockcomp

import (
	"bytes"
	"testing"
)

// FuzzLZRoundTrip: any input must compress and decompress to itself.
func FuzzLZRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 5000))
	f.Add(NewShaper(0.5).Make(1, 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		lz := NewLZ()
		out, err := lz.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		back, err := lz.Decompress(out, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("LZ round trip mismatch")
		}
	})
}

// FuzzLZDecompress: arbitrary compressed streams and declared sizes,
// negative ones included, must never panic or produce output beyond the
// declared size.
func FuzzLZDecompress(f *testing.F) {
	lz := NewLZ()
	good, _ := lz.Compress([]byte("some sample data data data"))
	f.Add(good, 26)
	f.Add([]byte{0x01, 0xFF, 0xFF}, 100)
	f.Add([]byte{0x00}, 0)
	f.Add(good, -1)
	f.Fuzz(func(t *testing.T, data []byte, size int) {
		if size > 1<<20 {
			return
		}
		out, err := lz.Decompress(data, size)
		if err == nil && len(out) != size {
			t.Fatalf("accepted stream decoded to %d bytes, declared %d", len(out), size)
		}
	})
}
