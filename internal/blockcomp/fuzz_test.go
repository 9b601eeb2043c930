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

// FuzzLZDecompressAppend: for any prefix, stream and declared size,
// DecompressAppend(prefix, ...) is prefix followed by what Decompress
// returns, or both fail; the prefix comes back unchanged either way,
// whether the output fits dst's spare capacity or has to grow it. A copy
// distance counts from the start of the chunk's own output, so one that
// reaches into the prefix is refused as Decompress refuses it.
func FuzzLZDecompressAppend(f *testing.F) {
	lz := NewLZ()
	good, _ := lz.Compress([]byte("some sample data data data"))
	f.Add([]byte("header"), good, 26)
	f.Add([]byte{}, good, 26)
	f.Add([]byte("xyz"), good, 25)
	// "ab", then a copy of 4 at distance 3: one byte into the prefix.
	f.Add([]byte("xyz"), []byte{0x00, 0x02, 'a', 'b', 0x01, 0x04, 0x03}, 6)
	f.Add([]byte("xyz"), []byte{0x01, 0xFF, 0xFF}, 100)
	f.Add([]byte("xyz"), good, -1)
	f.Fuzz(func(t *testing.T, prefix, data []byte, size int) {
		if size > 1<<20 {
			return
		}
		want, wantErr := lz.Decompress(data, size)
		for _, spare := range []int{0, max(size, 0)} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			got, err := lz.DecompressAppend(dst, data, size)
			if !bytes.Equal(dst, prefix) {
				t.Fatalf("spare %d: prefix changed", spare)
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("spare %d: DecompressAppend err %v, Decompress err %v", spare, err, wantErr)
			}
			if err == nil && (!bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want)) {
				t.Fatalf("spare %d: DecompressAppend is not prefix + Decompress", spare)
			}
		}
	})
}
