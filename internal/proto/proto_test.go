package proto

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/core"
	"fidr/internal/metrics"
	"fidr/internal/trace/span"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: OpWrite, LBA: 42, Payload: []byte("payload")},
		{Op: OpRead, LBA: 7},
		{Op: OpAck, LBA: 9},
		{Op: OpData, LBA: 1, Payload: bytes.Repeat([]byte{0xEE}, 4096)},
		{Op: OpError, LBA: 0, Payload: []byte("boom")},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.LBA != want.LBA || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFrameValidation(t *testing.T) {
	if err := Write(io.Discard, Frame{Op: OpWrite, Payload: make([]byte, MaxPayload+1)}); err == nil {
		t.Error("oversized payload accepted")
	}
	// Bad opcode.
	var buf bytes.Buffer
	buf.Write([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if _, err := Read(&buf); err == nil {
		t.Error("bad opcode accepted")
	}
	// Truncated payload.
	buf.Reset()
	Write(&buf, Frame{Op: OpWrite, LBA: 1, Payload: []byte("full payload")})
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	if _, err := Read(trunc); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpWrite: "write", OpRead: "read", OpAck: "ack", OpData: "ack+data", OpError: "error",
	} {
		if op.String() != want {
			t.Errorf("%d -> %q", op, op.String())
		}
	}
	if Op(99).String() == "" {
		t.Error("unknown op renders empty")
	}
}

func newTestListener(t *testing.T) (*Listener, *Client) {
	t.Helper()
	srv, err := core.New(core.DefaultConfig(core.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Serve(srv, "127.0.0.1:0")
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

func TestEndToEndOverTCP(t *testing.T) {
	_, c := newTestListener(t)
	sh := blockcomp.NewShaper(0.5)
	want := make(map[uint64][]byte)
	for i := uint64(0); i < 50; i++ {
		data := sh.Make(i%17, 4096)
		if err := c.WriteChunk(i, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		want[i] = data
	}
	for lba, data := range want {
		got, err := c.ReadChunk(lba)
		if err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("lba %d corrupted over the wire", lba)
		}
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	_, c := newTestListener(t)
	if _, err := c.ReadChunk(999); err == nil {
		t.Fatal("read of unwritten LBA succeeded")
	}
	if err := c.WriteChunk(1, []byte("short")); err == nil {
		t.Fatal("short write accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	l, _ := newTestListener(t)
	sh := blockcomp.NewShaper(0.5)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			base := uint64(g) * 1000
			for i := uint64(0); i < 40; i++ {
				data := sh.Make(base+i, 4096)
				if err := c.WriteChunk(base+i, data); err != nil {
					t.Errorf("client %d write: %v", g, err)
					return
				}
				got, err := c.ReadChunk(base + i)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("client %d read corrupted", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestWriteBatchOverTCP(t *testing.T) {
	_, c := newTestListener(t)
	sh := blockcomp.NewShaper(0.5)
	var batch []byte
	for i := uint64(0); i < 8; i++ {
		batch = append(batch, sh.Make(i, 4096)...)
	}
	if err := c.WriteBatch(100, batch); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		got, err := c.ReadChunk(100 + i)
		if err != nil || !bytes.Equal(got, sh.Make(i, 4096)) {
			t.Fatalf("batched chunk %d wrong: %v", i, err)
		}
	}
	// Misaligned batches are rejected server-side.
	if err := c.WriteBatch(0, make([]byte, 100)); err == nil {
		t.Fatal("misaligned batch accepted")
	}
	if err := c.WriteBatch(0, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestOpWriteBatchString(t *testing.T) {
	if OpWriteBatch.String() != "write-batch" {
		t.Error("op string wrong")
	}
}

func TestReadBatchOverTCP(t *testing.T) {
	_, c := newTestListener(t)
	sh := blockcomp.NewShaper(0.5)
	var want []byte
	for i := uint64(0); i < 6; i++ {
		data := sh.Make(i, 4096)
		if err := c.WriteChunk(50+i, data); err != nil {
			t.Fatal(err)
		}
		want = append(want, data...)
	}
	got, err := c.ReadBatch(50, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("batched read mismatch")
	}
	if _, err := c.ReadBatch(50, 0); err == nil {
		t.Fatal("zero-count batch accepted")
	}
	if _, err := c.ReadBatch(9999, 2); err == nil {
		t.Fatal("unmapped batched read succeeded")
	}
	if _, err := c.ReadBatch(50, MaxPayload); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestBatchRangeWrapRefused: a batch whose last address would pass the
// top of the address space is answered with OpError before any chunk
// is written or read, traced or not — a wrapped tail would land on
// LBA 0 and up.
func TestBatchRangeWrapRefused(t *testing.T) {
	_, c := newTestListener(t)
	sh := blockcomp.NewShaper(0.5)
	top := uint64(math.MaxUint64)
	batch := append(sh.Make(1, 4096), sh.Make(2, 4096)...)
	wraps := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "wraps the address space") {
			t.Fatalf("%s across the top of the address space: %v, want the wrap refusal", what, err)
		}
	}
	wraps("WriteBatch", c.WriteBatch(top, batch))
	_, err := c.WriteBatchTraced(top, batch)
	wraps("traced WriteBatch", err)
	for _, lba := range []uint64{top, 0} {
		if _, err := c.ReadChunk(lba); err == nil {
			t.Fatalf("LBA %d written by a refused batch", lba)
		}
	}

	for _, lba := range []uint64{top, 0} {
		if err := c.WriteChunk(lba, sh.Make(lba, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.ReadBatch(top, 2)
	if wraps("ReadBatch", err); got != nil {
		t.Fatalf("refused ReadBatch returned %d bytes", len(got))
	}
	_, _, err = c.ReadBatchTraced(top, 2)
	wraps("traced ReadBatch", err)
	// The top address itself is an ordinary one-chunk range.
	if got, err := c.ReadBatch(top, 1); err != nil || !bytes.Equal(got, sh.Make(top, 4096)) {
		t.Fatalf("one-chunk batch at the top address: %v", err)
	}
}

// TestFrameTraceContextOnWire: a frame carrying a trace context
// round-trips it byte-exactly, and untraced frames stay byte-identical
// to the pre-tracing wire format.
func TestFrameTraceContextOnWire(t *testing.T) {
	ctx := span.Context{Trace: 0xDEADBEEF, Parent: 0x1234, Sampled: true}
	var buf bytes.Buffer
	if err := Write(&buf, Frame{Op: OpWrite, LBA: 5, Payload: []byte("data"), Ctx: ctx}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ctx != ctx {
		t.Fatalf("context mangled: sent %+v, got %+v", ctx, got.Ctx)
	}
	if got.Op != OpWrite || got.LBA != 5 || !bytes.Equal(got.Payload, []byte("data")) {
		t.Fatalf("frame body mangled: %+v", got)
	}

	// Untraced frames: exactly headerSize+payload bytes, flag bit clear.
	buf.Reset()
	if err := Write(&buf, Frame{Op: OpWrite, LBA: 5, Payload: []byte("data")}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != headerSize+4 {
		t.Fatalf("untraced frame is %d bytes, want %d", buf.Len(), headerSize+4)
	}
	if buf.Bytes()[0]&opTraceFlag != 0 {
		t.Fatal("untraced frame carries the trace flag")
	}
}

// TestTracedWireRoundTrip drives a traced write and read through a real
// TCP listener over a real core server and checks the span tree: the
// listener's proto root span and the server's core request span share
// the client-minted trace, with the core span parented under the proto
// span.
func TestTracedWireRoundTrip(t *testing.T) {
	srv, err := core.New(core.DefaultConfig(core.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableObservability(nil)
	col := span.NewCollector(0, 0, 16)
	srv.SetSpanCollector(col, 0)
	reg := metrics.NewRegistry()
	l, err := Serve(srv, "127.0.0.1:0", WithSpanCollector(col), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	data := blockcomp.NewShaper(0.5).Make(1, 4096)
	id, err := c.WriteChunkTraced(3, data)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero trace ID returned")
	}
	got, rid, err := c.ReadChunkTraced(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("traced read corrupted data")
	}
	if rid == id {
		t.Fatal("write and read must mint distinct traces")
	}

	for _, tid := range []span.TraceID{id, rid} {
		spans := col.Trace(tid)
		if len(spans) == 0 {
			t.Fatalf("trace %s missing from collector", tid)
		}
		byName := map[string]span.Span{}
		for _, sp := range spans {
			byName[sp.Name] = sp
		}
		proto, ok := byName["proto.write"]
		if !ok {
			proto, ok = byName["proto.read"]
		}
		if !ok {
			t.Fatalf("trace %s has no proto root span: %v", tid, byName)
		}
		core, ok := byName["core.write"]
		if !ok {
			core, ok = byName["core.read"]
		}
		if !ok {
			t.Fatalf("trace %s has no core span: %v", tid, byName)
		}
		if core.Parent != proto.ID {
			t.Fatalf("core span parent %s != proto span ID %s", core.Parent, proto.ID)
		}
	}
	if n := reg.Counter("proto.requests").Value(); n != 2 {
		t.Fatalf("proto.requests = %d, want 2", n)
	}
	if n := reg.Counter("proto.errors").Value(); n != 0 {
		t.Fatalf("proto.errors = %d, want 0", n)
	}
}

// TestTracedBatchAndErrors: WriteBatchTraced covers the whole batch
// under one trace; traced requests that fail still echo the context
// and count as errors.
func TestTracedBatchAndErrors(t *testing.T) {
	srv, err := core.New(core.DefaultConfig(core.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableObservability(nil)
	col := span.NewCollector(0, 0, 16)
	srv.SetSpanCollector(col, 0)
	reg := metrics.NewRegistry()
	l, err := Serve(srv, "127.0.0.1:0", WithSpanCollector(col), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	sh := blockcomp.NewShaper(0.5)
	batch := append(sh.Make(1, 4096), sh.Make(2, 4096)...)
	id, err := c.WriteBatchTraced(0, batch)
	if err != nil {
		t.Fatal(err)
	}
	var coreSpans int
	for _, sp := range col.Trace(id) {
		if sp.Name == "core.write" {
			coreSpans++
		}
	}
	if coreSpans != 2 {
		t.Fatalf("batch trace has %d core.write spans, want 2", coreSpans)
	}

	if _, _, err := c.ReadChunkTraced(9999); err == nil {
		t.Fatal("traced read of unwritten LBA succeeded")
	}
	if n := reg.Counter("proto.errors").Value(); n != 1 {
		t.Fatalf("proto.errors = %d, want 1", n)
	}
}
