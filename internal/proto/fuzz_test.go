package proto

import (
	"bytes"
	"io"
	"testing"
)

// FuzzRead ensures the frame decoder never panics or over-allocates on
// arbitrary input, and that valid frames round-trip.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	Write(&seed, Frame{Op: OpWrite, LBA: 1, Payload: []byte("abc")})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			frame, err := Read(r)
			if err != nil {
				return // EOF or rejection are both fine
			}
			// A decoded frame must re-encode.
			var buf bytes.Buffer
			if err := Write(&buf, frame); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			back, err := Read(&buf)
			if err != nil {
				t.Fatalf("re-encoded frame does not decode: %v", err)
			}
			if back.Op != frame.Op || back.LBA != frame.LBA || !bytes.Equal(back.Payload, frame.Payload) {
				t.Fatal("frame round-trip mismatch")
			}
		}
	})
}

// FuzzWriteRead checks arbitrary payloads survive framing.
func FuzzWriteRead(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1<<40), []byte("chunk"))
	f.Fuzz(func(t *testing.T, lba uint64, payload []byte) {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		var buf bytes.Buffer
		if err := Write(&buf, Frame{Op: OpData, LBA: lba, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.LBA != lba || !bytes.Equal(got.Payload, payload) {
			t.Fatal("payload corrupted by framing")
		}
		if _, err := Read(&buf); err != io.EOF {
			t.Fatal("trailing bytes after frame")
		}
	})
}

// FuzzConnReader: an arbitrary byte stream delivered in arbitrary
// fragment sizes through a connection's decoder — at the real resident
// size and at sizes small enough that fields straddle, overflow and
// wrap the buffer — yields the same frames and then the same error as
// the stateless Read over the whole stream.
func FuzzConnReader(f *testing.F) {
	var seed bytes.Buffer
	Write(&seed, Frame{Op: OpWrite, LBA: 1, Payload: bytes.Repeat([]byte("abc"), 40)})
	Write(&seed, Frame{Op: OpData, LBA: 2, Payload: []byte("xyz"), Ctx: testCtx})
	Write(&seed, Frame{Op: OpAck, LBA: 3})
	f.Add(seed.Bytes(), []byte{1, 5, 200}, uint8(0))
	f.Add(seed.Bytes(), []byte{255}, uint8(1))
	f.Add(seed.Bytes()[:seed.Len()-2], []byte{13, 17}, uint8(2))
	f.Add([]byte{0x81, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{}, uint8(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), []byte{3}, uint8(4))
	sizes := []int{headerSize, maxHeader, 64, 4096 + maxHeader, residentSize}
	f.Fuzz(func(t *testing.T, data, frags []byte, pick uint8) {
		size := sizes[int(pick)%len(sizes)]
		d := decoder{buf: make([]byte, size), view: pick&0x80 == 0}
		whole, pieces := bytes.NewReader(data), &fragReader{in: bytes.NewReader(data), frags: frags}
		for {
			want, werr := Read(whole)
			got, gerr := d.read(pieces)
			if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
				t.Fatalf("%d-byte buffer: decoder error %v, stateless Read error %v", size, gerr, werr)
			}
			if werr != nil {
				return
			}
			if got.Op != want.Op || got.LBA != want.LBA || got.Ctx != want.Ctx || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("%d-byte buffer: decoder frame %v/%d/%d bytes, stateless Read %v/%d/%d bytes",
					size, got.Op, got.LBA, len(got.Payload), want.Op, want.LBA, len(want.Payload))
			}
		}
	})
}

// fragReader hands out in at most frags[i]+1 bytes on its i-th Read
// (cycling; unlimited when frags is empty).
type fragReader struct {
	in    *bytes.Reader
	frags []byte
	i     int
}

func (r *fragReader) Read(p []byte) (int, error) {
	if len(r.frags) > 0 {
		p = p[:min(len(p), int(r.frags[r.i%len(r.frags)])+1)]
		r.i++
	}
	return r.in.Read(p)
}
