package proto

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"fidr/internal/trace/span"
)

var raceEnabled bool // set by race_test.go under -race

// slotStore is a chunk store over preallocated 4-KB slots. Like every
// real store its Write copies what it is given; Read returns the slot
// itself, so neither allocates. The listener serializes access.
type slotStore struct{ slots [][]byte }

func newSlotStore(n int) *slotStore {
	s := &slotStore{slots: make([][]byte, n)}
	for i := range s.slots {
		s.slots[i] = make([]byte, 4096)
	}
	return s
}

func (s *slotStore) ChunkSize() int { return 4096 }

func (s *slotStore) Write(lba uint64, data []byte) error {
	if lba >= uint64(len(s.slots)) || len(data) != 4096 {
		return fmt.Errorf("slot store: write of %d bytes at LBA %d", len(data), lba)
	}
	copy(s.slots[lba], data)
	return nil
}

func (s *slotStore) Read(lba uint64) ([]byte, error) {
	if lba >= uint64(len(s.slots)) {
		return nil, fmt.Errorf("slot store: no LBA %d", lba)
	}
	return s.slots[lba], nil
}

func (s *slotStore) ReadRange(lba uint64, n int) ([]byte, error) {
	if lba+uint64(n) > uint64(len(s.slots)) {
		return nil, fmt.Errorf("slot store: no LBAs %d..%d", lba, lba+uint64(n))
	}
	return bytes.Join(s.slots[lba:lba+uint64(n)], nil), nil
}

// serveSlots starts a listener over a slot store and dials it.
func serveSlots(t testing.TB, slots int) (*Listener, *Client) {
	t.Helper()
	l, err := Serve(newSlotStore(slots), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return l, c
}

// scriptConn is a net.Conn whose Read side plays back in, at most frag
// bytes a call (0: no limit), and whose Write side records every call.
type scriptConn struct {
	net.Conn // nil: only Read and Write are reached
	in       *bytes.Reader
	frag     int
	writes   [][]byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.in == nil {
		return 0, io.EOF
	}
	if c.frag > 0 && len(p) > c.frag {
		p = p[:c.frag]
	}
	return c.in.Read(p)
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

var testCtx = span.Context{Trace: 0x1817161514131211, Parent: 0x2827262524232221, Sampled: true}

// TestOneWritePerFrame: a frame that fits the resident buffer leaves in
// exactly one Write on the connection, on the requesting and on the
// answering side, with and without the trace extension.
func TestOneWritePerFrame(t *testing.T) {
	l, _ := serveSlots(t, 16)
	chunk := bytes.Repeat([]byte{0xAB}, 4096)
	var reqs []Frame
	var want []Op
	for _, ctx := range []span.Context{{}, testCtx} {
		rb := readBatchFrame(2, 8)
		rb.Ctx = ctx
		reqs = append(reqs,
			Frame{Op: OpWrite, LBA: 1, Payload: chunk, Ctx: ctx},
			Frame{Op: OpRead, LBA: 1, Ctx: ctx},
			Frame{Op: OpWriteBatch, LBA: 2, Payload: bytes.Repeat(chunk, 8), Ctx: ctx},
			rb,
			Frame{Op: OpRead, LBA: 99, Ctx: ctx})
		want = append(want, OpAck, OpData, OpAck, OpData, OpError)
	}

	client := &scriptConn{}
	cc := newConn(client, false)
	for _, f := range reqs {
		if err := cc.write(f); err != nil {
			t.Fatal(err)
		}
	}
	if len(client.writes) != len(reqs) {
		t.Fatalf("%d requests left in %d Writes", len(reqs), len(client.writes))
	}

	server := &scriptConn{in: bytes.NewReader(bytes.Join(client.writes, nil))}
	if err := l.serveConn(server); err != io.EOF {
		t.Fatalf("handler ended with %v, want EOF", err)
	}
	if len(server.writes) != len(reqs) {
		t.Fatalf("%d responses left in %d Writes", len(reqs), len(server.writes))
	}
	for i, w := range server.writes {
		resp, err := Read(bytes.NewReader(w))
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Op != want[i] || resp.Ctx != reqs[i].Ctx {
			t.Fatalf("response %d: %v ctx %+v, want %v ctx %+v", i, resp.Op, resp.Ctx, want[i], reqs[i].Ctx)
		}
	}
}

// TestWireBytesGolden pins the wire format. Two literal frames fix the
// layout; then, for every opcode with and without the 0x80 trace
// extension, the connection encoder's bytes (however many Writes they
// left in) equal the stateless Write's.
func TestWireBytesGolden(t *testing.T) {
	for _, g := range []struct {
		f    Frame
		want string
	}{
		{Frame{Op: OpWrite, LBA: 0x0807060504030201, Payload: []byte("abc")},
			"01" + "0102030405060708" + "03000000" + "616263"},
		{Frame{Op: OpData, LBA: 0x0807060504030201, Payload: []byte("abc"), Ctx: testCtx},
			"84" + "0102030405060708" + "03000000" + "1112131415161718" + "2122232425262728" + "01" + "616263"},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, g.f); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != g.want {
			t.Fatalf("%v frame encodes to\n %s, the wire format is\n %s", g.f.Op, got, g.want)
		}
	}

	payload := make([]byte, residentSize)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for op := OpWrite; op <= OpCheckpoint; op++ {
		for _, ctx := range []span.Context{{}, testCtx} {
			// Empty, small, one chunk, the largest that fits, the smallest that does not.
			for _, n := range []int{0, 3, 4096, residentSize - maxHeader, residentSize - headerSize + 1} {
				f := Frame{Op: op, LBA: uint64(op) << 40, Payload: payload[:n], Ctx: ctx}
				var want bytes.Buffer
				if err := Write(&want, f); err != nil {
					t.Fatal(err)
				}
				sc := &scriptConn{}
				if err := newConn(sc, false).write(f); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bytes.Join(sc.writes, nil), want.Bytes()) {
					t.Fatalf("%v, traced %v, %d-byte payload: connection encoder and stateless Write differ", op, ctx.Valid(), n)
				}
			}
		}
	}
}

// TestWireRoundTripAllocs: over a live loopback pair a chunk write
// allocates nothing on either side, and a chunk read allocates exactly
// the payload slice the client returns.
func TestWireRoundTripAllocs(t *testing.T) {
	_, c := serveSlots(t, 4)
	chunk := bytes.Repeat([]byte{0x5A}, 4096)
	write := func() {
		if err := c.WriteChunk(1, chunk); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if got, err := c.ReadChunk(1); err != nil || !bytes.Equal(got, chunk) {
			t.Fatalf("read back %d bytes, err %v", len(got), err)
		}
	}
	write()
	read()
	w, r := testing.AllocsPerRun(200, write), testing.AllocsPerRun(200, read)
	if raceEnabled {
		t.Skipf("%v / %v allocs under the race detector; the pins are for uninstrumented builds", w, r)
	}
	if w != 0 {
		t.Errorf("WriteChunk round trip: %v allocs, want 0", w)
	}
	if r != 1 {
		t.Errorf("ReadChunk round trip: %v allocs, want 1 (the returned payload)", r)
	}
}

// TestOversizeFrameNotRetained: a 1-MiB batch passes through both ends
// of a connection and back without growing what either end keeps.
func TestOversizeFrameNotRetained(t *testing.T) {
	batch := make([]byte, MaxPayload)
	for i := range batch {
		batch[i] = byte(i >> 8)
	}
	resident := func(c *conn) {
		t.Helper()
		if cap(c.enc.buf) != residentSize || len(c.dec.buf) != residentSize || cap(c.dec.buf) != residentSize {
			t.Fatalf("resident buffers: write %d, read %d/%d, want %d each",
				cap(c.enc.buf), len(c.dec.buf), cap(c.dec.buf), residentSize)
		}
	}

	// Codec level: the sender needs two Writes and no copy; the receiver
	// hands out a one-off slice, then goes back to views of its buffer.
	out := &scriptConn{}
	sender := newConn(out, false)
	small := Frame{Op: OpWrite, LBA: 9, Payload: batch[:4096]}
	for _, f := range []Frame{{Op: OpWriteBatch, LBA: 0, Payload: batch}, small} {
		if err := sender.write(f); err != nil {
			t.Fatal(err)
		}
	}
	if len(out.writes) != 3 {
		t.Fatalf("oversize frame + small frame left in %d Writes, want 2 + 1", len(out.writes))
	}
	resident(sender)
	receiver := newConn(&scriptConn{in: bytes.NewReader(bytes.Join(out.writes, nil)), frag: 9000}, true)
	f, err := receiver.read()
	if err != nil || !bytes.Equal(f.Payload, batch) {
		t.Fatalf("oversize frame: %d bytes, err %v", len(f.Payload), err)
	}
	resident(receiver)
	f, err = receiver.read()
	if err != nil || !bytes.Equal(f.Payload, small.Payload) {
		t.Fatalf("frame after the oversize one: %d bytes, err %v", len(f.Payload), err)
	}
	if d := &receiver.dec; &f.Payload[0] != &d.buf[d.r-len(f.Payload)] {
		t.Fatal("frame after the oversize one is not a view of the resident buffer")
	}

	// End to end: the batch lands and reads back through a live pair.
	_, c := serveSlots(t, MaxPayload/4096)
	if err := c.WriteBatch(0, batch); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadBatch(0, MaxPayload/4096)
	if err != nil || !bytes.Equal(got, batch) {
		t.Fatalf("1-MiB batch read back %d bytes, err %v", len(got), err)
	}
	resident(c.conn)
}

// TestStatelessPeerInterop: the wire is a fixed point, so a peer built
// before the connection codec — one that frames with the stateless
// Write and Read, header and payload in separate segments — talks to
// the new listener, and the new client talks to such a server.
func TestStatelessPeerInterop(t *testing.T) {
	chunk := bytes.Repeat([]byte{0xC3}, 4096)

	// Old client, new listener.
	l, _ := serveSlots(t, 4)
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for _, ctx := range []span.Context{{}, testCtx} {
		for _, step := range []struct {
			req  Frame
			want Frame
		}{
			{Frame{Op: OpWrite, LBA: 2, Payload: chunk, Ctx: ctx}, Frame{Op: OpAck, LBA: 2, Ctx: ctx}},
			{Frame{Op: OpRead, LBA: 2, Ctx: ctx}, Frame{Op: OpData, LBA: 2, Payload: chunk, Ctx: ctx}},
		} {
			if err := Write(nc, step.req); err != nil {
				t.Fatal(err)
			}
			got, err := Read(nc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Op != step.want.Op || got.LBA != step.want.LBA || got.Ctx != step.want.Ctx || !bytes.Equal(got.Payload, step.want.Payload) {
				t.Fatalf("stateless client got %v LBA %d (%d bytes), want %v", got.Op, got.LBA, len(got.Payload), step.want.Op)
			}
		}
	}

	// New client, old server: an echo store framed statelessly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer nc.Close()
		var kept []byte
		for {
			f, err := Read(nc)
			if err != nil {
				served <- err
				return
			}
			resp := Frame{Op: OpAck, LBA: f.LBA, Ctx: f.Ctx}
			if f.Op == OpWrite {
				kept = f.Payload
			} else {
				resp.Op, resp.Payload = OpData, kept
			}
			if err := Write(nc, resp); err != nil {
				served <- err
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteChunkTraced(3, chunk); err != nil {
		t.Fatal(err)
	}
	if got, err := c.ReadChunk(3); err != nil || !bytes.Equal(got, chunk) {
		t.Fatalf("new client read %d bytes from a stateless server, err %v", len(got), err)
	}
	c.Close()
	if err := <-served; err != io.EOF {
		t.Fatalf("stateless server ended with %v, want EOF", err)
	}
}

// liveness bounds a wait that fails only by hanging; it is generous and
// carries no latency verdict.
const liveness = 30 * time.Second

func closeWithin(t *testing.T, l *Listener) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(liveness):
		t.Fatalf("Listener.Close still waiting after %v", liveness)
	}
}

// TestListenerCloseWithIdleClient: Close returns while a client that has
// nothing more to say is still connected.
func TestListenerCloseWithIdleClient(t *testing.T) {
	l, err := Serve(newSlotStore(4), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.logf = t.Logf
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteChunk(1, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	closeWithin(t, l)
	if l.Accepting() {
		t.Error("accept loop still running after Close")
	}
	if err := c.WriteChunk(1, make([]byte, 4096)); err == nil {
		t.Error("a closed listener answered a request")
	}
}

// gateStore holds every Write until released.
type gateStore struct {
	*slotStore
	entered, release chan struct{}
}

func (g *gateStore) Write(lba uint64, data []byte) error {
	g.entered <- struct{}{}
	<-g.release
	return g.slotStore.Write(lba, data)
}

// TestListenerCloseAnswersInFlightRequest: a request already read when
// Close begins is served and answered before its connection goes.
func TestListenerCloseAnswersInFlightRequest(t *testing.T) {
	st := &gateStore{slotStore: newSlotStore(4), entered: make(chan struct{}), release: make(chan struct{})}
	l, err := Serve(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.logf = t.Logf
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	acked := make(chan error, 1)
	go func() { acked <- c.WriteChunk(2, bytes.Repeat([]byte{7}, 4096)) }()
	<-st.entered
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	// Let the write through only once Close has begun.
	for !l.closing.Load() {
		time.Sleep(time.Millisecond)
	}
	close(st.release)
	select {
	case err := <-acked:
		if err != nil {
			t.Fatalf("request in flight at Close: %v", err)
		}
	case <-time.After(liveness):
		t.Fatal("request in flight at Close never answered")
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(liveness):
		t.Fatal("Listener.Close still waiting after the last answer")
	}
	if st.slots[2][0] != 7 {
		t.Fatal("acknowledged write did not reach the store")
	}
}

// BenchmarkWireRoundTrip is one 4-KB chunk each way over loopback TCP
// against a store that does nothing but copy: the wire's own cost.
func BenchmarkWireRoundTrip(b *testing.B) {
	_, c := serveSlots(b, 4)
	chunk := bytes.Repeat([]byte{0x5A}, 4096)
	b.Run("write", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if err := c.WriteChunk(1, chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if _, err := c.ReadChunk(1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
