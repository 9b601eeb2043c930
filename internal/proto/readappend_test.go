package proto

import (
	"bytes"
	"testing"

	"fidr/internal/trace/span"
)

// appendStore is a slot store that also reads in place, appending each
// chunk to the caller's buffer one at a time as a server does.
type appendStore struct{ *slotStore }

func (s appendStore) ReadAppend(dst []byte, lba uint64, _ *span.TraceContext) ([]byte, error) {
	data, err := s.Read(lba)
	if err != nil {
		return nil, err
	}
	return append(dst, data...), nil
}

func (s appendStore) ReadRangeAppend(dst []byte, lba uint64, n int, tc *span.TraceContext) ([]byte, error) {
	for at := lba; at < lba+uint64(n); at++ {
		var err error
		if dst, err = s.ReadAppend(dst, at, tc); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// TestSendInPlace: a payload appended behind a reserved header leaves as
// the same bytes the encoder writes for the frame, in one Write however
// large, and a frame that outgrew the resident buffer is not kept.
func TestSendInPlace(t *testing.T) {
	payload := make([]byte, MaxPayload)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, ctx := range []span.Context{{}, testCtx} {
		for _, n := range []int{0, 4096, residentSize - maxHeader, residentSize, MaxPayload} {
			f := Frame{Op: OpData, LBA: 77, Payload: payload[:n], Ctx: ctx}
			var want bytes.Buffer
			if err := Write(&want, f); err != nil {
				t.Fatal(err)
			}
			out := &scriptConn{}
			c := newConn(out, true)
			b := append(c.enc.reserve(ctx), f.Payload...)
			if err := c.enc.send(out, b, Frame{Op: OpData, LBA: 77, Ctx: ctx}); err != nil {
				t.Fatal(err)
			}
			if len(out.writes) != 1 || !bytes.Equal(out.writes[0], want.Bytes()) {
				t.Fatalf("ctx %v, %d-byte payload: %d Writes, bytes equal %v", ctx.Valid(), n,
					len(out.writes), len(out.writes) == 1 && bytes.Equal(out.writes[0], want.Bytes()))
			}
			if cap(c.enc.buf) != residentSize {
				t.Fatalf("%d-byte payload left a %d-byte write buffer, want %d", n, cap(c.enc.buf), residentSize)
			}
		}
	}
	out := &scriptConn{}
	c := newConn(out, true)
	if err := c.enc.send(out, append(c.enc.reserve(span.Context{}), payload...), Frame{Op: OpData}); err != nil {
		t.Fatal(err)
	}
	if err := c.enc.send(out, append(c.enc.reserve(span.Context{}), append(payload, 0)...), Frame{Op: OpData}); err == nil {
		t.Fatal("payload over MaxPayload sent")
	}
}

// TestReadBatchAllocs: a wire batch read four times the resident write
// buffer grows its frame once before the first chunk, though the store
// appends chunk by chunk, so the round trip allocates that frame and the
// client's two (request count and returned payload); grown by append, the
// frame would take several. A store without ReadAppend adds the slice its
// ReadRange returns.
func TestReadBatchAllocs(t *testing.T) {
	const slots = 4 * residentSize / 4096
	for _, tc := range []struct {
		name string
		st   Store
		want float64
	}{
		{"append", appendStore{newSlotStore(slots)}, 3},
		{"copy", newSlotStore(slots), 4},
	} {
		l, err := Serve(tc.st, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		read := func() {
			if got, err := c.ReadBatch(0, slots); err != nil || len(got) != slots*4096 {
				t.Fatalf("%s: read back %d bytes, err %v", tc.name, len(got), err)
			}
		}
		read()
		n := testing.AllocsPerRun(20, read)
		if raceEnabled {
			t.Skipf("%v allocs under the race detector; the pin is for uninstrumented builds", n)
		}
		if n != tc.want {
			t.Errorf("%s: %d-chunk ReadBatch round trip: %v allocs, want %v", tc.name, slots, n, tc.want)
		}
	}
}
