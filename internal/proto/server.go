package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fidr/internal/chunk"
	"fidr/internal/metrics"
	"fidr/internal/trace/span"
)

// Store is the chunk-store surface the listener serves: a single
// core.Server, or the async front-end adapter over one or many.
type Store interface {
	Write(lba uint64, data []byte) error
	Read(lba uint64) ([]byte, error)
	ReadRange(lba uint64, n int) ([]byte, error)
	ChunkSize() int
}

// TracedStore is the optional Store extension the listener uses to
// hand a wire trace context down into the storage pipeline. Server and
// the async front-end adapter implement it.
type TracedStore interface {
	WriteTraced(lba uint64, data []byte, tc *span.TraceContext) error
	ReadTraced(lba uint64, tc *span.TraceContext) ([]byte, error)
	ReadRangeTraced(lba uint64, n int, tc *span.TraceContext) ([]byte, error)
}

// ReadAppender is the optional Store extension through which a read
// lands in the connection's write buffer: ReadAppend appends the chunk at
// lba to dst, and ReadRangeAppend the n chunks ReadRange would return,
// each returning the extended slice (tc is nil for an untraced request).
// The listener passes a reserved response header as dst, so the store's
// decompressor writes the reply in place and the frame leaves in one
// Write with nothing allocated per read. Server and the async front-end
// adapter implement it; for a store without it the listener appends what
// Read and ReadRange return, the same copy the encoder makes of any
// payload.
type ReadAppender interface {
	ReadAppend(dst []byte, lba uint64, tc *span.TraceContext) ([]byte, error)
	ReadRangeAppend(dst []byte, lba uint64, n int, tc *span.TraceContext) ([]byte, error)
}

// CompactSummary is the wire form of a GC pass result (one row per
// OpCompact ack; mirrors core.CompactResult in fixed-width types).
type CompactSummary struct {
	ContainersCompacted uint64
	ChunksMoved         uint64
	ChunksDropped       uint64
	BytesReclaimed      uint64
	BytesMoved          uint64
}

// Compactor is the optional Store extension behind OpCompact: run one
// GC pass at the given dead-fraction threshold across every group and
// return the aggregate. The async front-end adapter implements it by
// running the pass as the owner of each server.
type Compactor interface {
	CompactAll(minDeadFraction float64) (CompactSummary, error)
}

// Checkpointer is the optional Store extension behind OpCheckpoint:
// persist the metadata checkpoint and truncate the WAL on every
// durable group.
type Checkpointer interface {
	CheckpointAll() error
}

// Listener serves the storage protocol over TCP in front of a chunk
// store. The core server is single-writer; by default the listener
// serializes requests across connections (as the FIDR software's
// device manager serializes the device pipeline). Fronts that
// serialize internally (the async front-end adapter) can lift that with
// WithConcurrentStore.
type Listener struct {
	srv    Store
	traced TracedStore  // srv's traced surface, nil when unsupported
	ra     ReadAppender // srv's append-read surface, nil when unsupported
	comp   Compactor    // srv's GC surface, nil when unsupported
	chkpt  Checkpointer // srv's checkpoint surface, nil when unsupported
	// batchErr is why the batch ops cannot run on srv: they count
	// chunk-size blocks at consecutive addresses, and srv addresses in
	// another unit (content-defined chunking addresses bytes). A store
	// that does not report its chunking holds one chunk per address.
	batchErr error
	mu       sync.Mutex
	serial   bool
	ln       net.Listener

	col               *span.Collector
	requests, errLogs *metrics.Counter

	wg        sync.WaitGroup
	accepting atomic.Bool // true while the accept loop is running
	logf      func(format string, args ...any)

	// conns is the open connections Close must wake. closing is set by
	// Close, under connMu like every change to conns, so a connection is
	// either tracked before Close walks the set or turned away.
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	closing atomic.Bool
}

// ServeOption configures a Listener at Serve time.
type ServeOption func(*Listener)

// WithSpanCollector publishes one "proto.<op>" root span per traced
// request into col, parented under the client's context.
func WithSpanCollector(col *span.Collector) ServeOption {
	return func(l *Listener) { l.col = col }
}

// WithMetrics registers the listener's own series on reg:
// proto.requests and proto.errors counters (the SLO plane's
// availability inputs).
func WithMetrics(reg *metrics.Registry) ServeOption {
	return func(l *Listener) {
		l.requests = reg.Counter("proto.requests")
		l.errLogs = reg.Counter("proto.errors")
	}
}

// WithConcurrentStore lifts the cross-connection serialization mutex.
// Only safe when the store is concurrent-safe itself (e.g. an async
// front-end that serializes each group under its owner lock).
func WithConcurrentStore() ServeOption {
	return func(l *Listener) { l.serial = false }
}

// Serve starts serving on addr ("host:port"; use ":0" for an ephemeral
// port) and returns immediately. Close stops it.
func Serve(srv Store, addr string, opts ...ServeOption) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proto: listen: %w", err)
	}
	l := &Listener{srv: srv, ln: ln, serial: true, conns: make(map[net.Conn]struct{}), logf: log.Printf}
	l.traced, _ = srv.(TracedStore)
	l.ra, _ = srv.(ReadAppender)
	l.comp, _ = srv.(Compactor)
	l.chkpt, _ = srv.(Checkpointer)
	if c, ok := srv.(interface{ Chunking() chunk.Config }); ok {
		if u := c.Chunking().Unit(); u != srv.ChunkSize() {
			l.batchErr = fmt.Errorf("batch ops address %d-byte chunks at consecutive LBAs, and this store addresses %d-byte units (CDC): write segments and read extents one at a time",
				srv.ChunkSize(), u)
		}
	}
	for _, opt := range opts {
		opt(l)
	}
	l.accepting.Store(true)
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Accepting reports whether the accept loop is still running. It goes
// false when the loop exits for any reason — deliberate Close or an
// accept error — which is exactly the liveness condition the health
// watchdog probes: a daemon whose listener died serves nothing, however
// healthy the rest looks.
func (l *Listener) Accepting() bool { return l.accepting.Load() }

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Close stops accepting, lets every request already read finish and be
// answered, and returns once all handlers have. A handler waiting for
// its client's next frame is woken by expiring the connection's read
// deadline, so an idle (or stalled) client cannot hold Close up.
func (l *Listener) Close() error {
	l.connMu.Lock()
	l.closing.Store(true)
	for nc := range l.conns {
		nc.SetReadDeadline(time.Now()) // fails only on a connection already closed
	}
	l.connMu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

// track registers an accepted connection for Close; false means Close
// has already begun and the connection must be dropped.
func (l *Listener) track(nc net.Conn) bool {
	l.connMu.Lock()
	defer l.connMu.Unlock()
	if l.closing.Load() {
		return false
	}
	l.conns[nc] = struct{}{}
	return true
}

func (l *Listener) untrack(nc net.Conn) {
	l.connMu.Lock()
	delete(l.conns, nc)
	l.connMu.Unlock()
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	defer l.accepting.Store(false)
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			if !l.closing.Load() {
				l.logf("proto: accept: %v", err)
			}
			return
		}
		if !l.track(nc) {
			nc.Close()
			return
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer nc.Close()
			err := l.serveConn(nc)
			l.untrack(nc)
			// After Close began, a failed read is the expected wake-up.
			if !l.closing.Load() && !errors.Is(err, io.EOF) {
				l.logf("proto: connection: %v", err)
			}
		}()
	}
}

// conn is one connection's frame codec, used by the listener's handler
// and by Client: the encoder's write buffer and the decoder's read
// buffer stay resident for the connection's life (2 x residentSize).
type conn struct {
	nc  net.Conn
	enc encoder
	dec decoder
}

// newConn wraps nc. view selects whether received payloads alias the
// read buffer (see decoder.view).
func newConn(nc net.Conn, view bool) *conn {
	return &conn{
		nc:  nc,
		enc: encoder{buf: make([]byte, 0, residentSize)},
		dec: decoder{buf: make([]byte, residentSize), view: view},
	}
}

func (c *conn) read() (Frame, error) { return c.dec.read(c.nc) }
func (c *conn) write(f Frame) error  { return c.enc.write(c.nc, f) }

// serveConn answers requests until the connection fails or ends; the
// error is never nil. A request's payload is a view of the connection's
// read buffer, valid until the next frame is read: the store must copy
// what it keeps, as every Store.Write does.
func (l *Listener) serveConn(nc net.Conn) error {
	c := newConn(nc, true)
	for {
		f, err := c.read()
		if err != nil {
			return err
		}
		if resp, b := l.handle(f, c.enc.reserve(f.Ctx)); b != nil {
			err = c.enc.send(nc, b, resp)
		} else {
			err = c.write(resp)
		}
		if err != nil {
			return err
		}
	}
}

// handle serves one request; hdr is the response header reserved in the
// connection's write buffer. A served read comes back as b, the whole
// frame in that buffer (or what it grew into) with the header still to
// fill in from resp; otherwise b is nil and resp is the frame to encode.
func (l *Listener) handle(f Frame, hdr []byte) (resp Frame, b []byte) {
	if l.serial {
		l.mu.Lock()
		defer l.mu.Unlock()
	}
	if l.requests != nil {
		l.requests.Inc()
	}
	// A traced request gets a listener root span; the store sees a child
	// context so its own spans nest under "proto.<op>". Responses echo
	// the request context so the client can verify the round trip.
	var rootID span.SpanID
	var start time.Time
	var tc *span.TraceContext
	if f.Ctx.Valid() {
		rootID = span.NewSpanID()
		start = time.Now()
		if l.traced != nil {
			tc = &span.TraceContext{Context: f.Ctx.Child(rootID)}
		}
	}
	if f.Op == OpRead || f.Op == OpReadBatch {
		resp, b = l.readInPlace(f, tc, hdr)
	} else {
		resp = l.dispatch(f, tc)
	}
	resp.Ctx = f.Ctx
	if resp.Op == OpError && l.errLogs != nil {
		l.errLogs.Inc()
	}
	if rootID != 0 && f.Ctx.Sampled && l.col != nil {
		l.col.Add(span.Span{
			Trace:  f.Ctx.Trace,
			ID:     rootID,
			Parent: f.Ctx.Parent,
			Name:   "proto." + opSlug(f.Op),
			Start:  start,
			Dur:    time.Since(start),
			Bytes:  uint64(len(f.Payload)),
			LBA:    f.LBA,
		})
	}
	return resp, b
}

// opSlug is the span-name form of an opcode ("write-batch" -> "write_batch").
func opSlug(op Op) string {
	switch op {
	case OpWriteBatch:
		return "write_batch"
	case OpReadBatch:
		return "read_batch"
	default:
		return op.String()
	}
}

// write, read and readRange hand a request to the store, through its
// traced surface when the request carries a trace context. read and
// readRange append the chunks to dst: the store decodes them there when
// it has ReadAppend, and otherwise its result is copied there.
func (l *Listener) write(lba uint64, data []byte, tc *span.TraceContext) error {
	if tc != nil {
		return l.traced.WriteTraced(lba, data, tc)
	}
	return l.srv.Write(lba, data)
}

func (l *Listener) read(dst []byte, lba uint64, tc *span.TraceContext) ([]byte, error) {
	if l.ra != nil {
		return l.ra.ReadAppend(dst, lba, tc)
	}
	var data []byte
	var err error
	if tc != nil {
		data, err = l.traced.ReadTraced(lba, tc)
	} else {
		data, err = l.srv.Read(lba)
	}
	if err != nil {
		return nil, err
	}
	return append(dst, data...), nil
}

func (l *Listener) readRange(dst []byte, lba uint64, n int, tc *span.TraceContext) ([]byte, error) {
	if l.ra != nil {
		return l.ra.ReadRangeAppend(dst, lba, n, tc)
	}
	var data []byte
	var err error
	if tc != nil {
		data, err = l.traced.ReadRangeTraced(lba, n, tc)
	} else {
		data, err = l.srv.ReadRange(lba, n)
	}
	if err != nil {
		return nil, err
	}
	return append(dst, data...), nil
}

// readInPlace serves OpRead and OpReadBatch: the chunks are appended to
// hdr, the reserved response header, and the frame comes back as b. A
// batch frame is grown once to its full size before the first chunk, so
// one larger than the resident buffer costs one allocation. A refused or
// failed read returns the error frame and a nil b. tc is as for dispatch.
func (l *Listener) readInPlace(f Frame, tc *span.TraceContext, hdr []byte) (resp Frame, b []byte) {
	var err error
	if f.Op == OpRead {
		b, err = l.read(hdr, f.LBA, tc)
	} else {
		var count int
		if count, err = l.batchCount(f); err == nil {
			b, err = l.readRange(slices.Grow(hdr, count*l.srv.ChunkSize()), f.LBA, count, tc)
		}
	}
	if err != nil {
		return Frame{Op: OpError, LBA: f.LBA, Payload: []byte(err.Error())}, nil
	}
	return Frame{Op: OpData, LBA: f.LBA}, b
}

// batchCount validates an OpReadBatch request and returns its count.
func (l *Listener) batchCount(f Frame) (int, error) {
	if l.batchErr != nil {
		return 0, l.batchErr
	}
	if len(f.Payload) != 4 {
		return 0, errors.New("read-batch payload must be a uint32 count")
	}
	count := int(binary.LittleEndian.Uint32(f.Payload))
	if count < 1 || count*l.srv.ChunkSize() > MaxPayload {
		return 0, fmt.Errorf("read-batch count %d out of range", count)
	}
	return count, nil
}

// dispatch serves one request; tc is non-nil only for a traced request
// on a store with a traced surface.
func (l *Listener) dispatch(f Frame, tc *span.TraceContext) Frame {
	if f.Op == OpWriteBatch && l.batchErr != nil {
		return Frame{Op: OpError, LBA: f.LBA, Payload: []byte(l.batchErr.Error())}
	}
	switch f.Op {
	case OpWrite:
		if err := l.write(f.LBA, f.Payload, tc); err != nil {
			return Frame{Op: OpError, LBA: f.LBA, Payload: []byte(err.Error())}
		}
		return Frame{Op: OpAck, LBA: f.LBA}
	case OpWriteBatch:
		cs := l.srv.ChunkSize()
		if len(f.Payload) == 0 || len(f.Payload)%cs != 0 {
			return Frame{Op: OpError, LBA: f.LBA,
				Payload: []byte(fmt.Sprintf("batch payload %d not a multiple of chunk size %d", len(f.Payload), cs))}
		}
		if n := uint64(len(f.Payload) / cs); f.LBA > math.MaxUint64-(n-1) {
			// Refused whole: a wrapped tail would overwrite low addresses.
			return Frame{Op: OpError, LBA: f.LBA,
				Payload: []byte(fmt.Sprintf("batch of %d chunks at LBA %d wraps the address space", n, f.LBA))}
		}
		for i := 0; i*cs < len(f.Payload); i++ {
			if err := l.write(f.LBA+uint64(i), f.Payload[i*cs:(i+1)*cs], tc); err != nil {
				return Frame{Op: OpError, LBA: f.LBA + uint64(i), Payload: []byte(err.Error())}
			}
		}
		return Frame{Op: OpAck, LBA: f.LBA}
	case OpCompact:
		if l.comp == nil {
			return Frame{Op: OpError, LBA: f.LBA, Payload: []byte("store does not support compaction")}
		}
		if len(f.Payload) != 8 {
			return Frame{Op: OpError, LBA: f.LBA, Payload: []byte("compact payload must be float64 threshold bits")}
		}
		th := math.Float64frombits(binary.LittleEndian.Uint64(f.Payload))
		if math.IsNaN(th) || th < 0 || th > 1 {
			return Frame{Op: OpError, LBA: f.LBA,
				Payload: []byte(fmt.Sprintf("compact threshold %v outside [0,1]", th))}
		}
		sum, err := l.comp.CompactAll(th)
		if err != nil {
			return Frame{Op: OpError, LBA: f.LBA, Payload: []byte(err.Error())}
		}
		p := make([]byte, 40)
		for i, v := range []uint64{sum.ContainersCompacted, sum.ChunksMoved,
			sum.ChunksDropped, sum.BytesReclaimed, sum.BytesMoved} {
			binary.LittleEndian.PutUint64(p[i*8:], v)
		}
		return Frame{Op: OpAck, LBA: f.LBA, Payload: p}
	case OpCheckpoint:
		if l.chkpt == nil {
			return Frame{Op: OpError, LBA: f.LBA, Payload: []byte("store does not support checkpointing")}
		}
		if err := l.chkpt.CheckpointAll(); err != nil {
			return Frame{Op: OpError, LBA: f.LBA, Payload: []byte(err.Error())}
		}
		return Frame{Op: OpAck, LBA: f.LBA}
	default:
		return Frame{Op: OpError, LBA: f.LBA, Payload: []byte("unexpected opcode")}
	}
}

// Client is a blocking protocol client: one request in flight. Payloads
// it returns are fresh slices the caller keeps.
type Client struct {
	conn *conn
	mu   sync.Mutex
}

// Dial connects to a Listener.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proto: dial: %w", err)
	}
	return &Client{conn: newConn(nc, false)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.nc.Close() }

// roundTrip sends a frame and reads the response.
func (c *Client) roundTrip(f Frame) (Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.conn.write(f); err != nil {
		return Frame{}, err
	}
	return c.conn.read()
}

// do runs one verb: send f, surface a server error, and require the
// wantOp response (zero: the caller checks). A traced verb mints a
// sampled trace context, rides it on the request, and verifies the
// server echoed it back — proof the context survived the wire both
// ways; its trace ID is returned (resolvable at the server's
// /traces/spans endpoint).
func (c *Client) do(f Frame, wantOp Op, traced bool) (Frame, span.TraceID, error) {
	if traced {
		f.Ctx = span.Context{Trace: span.NewTraceID(), Parent: span.NewSpanID(), Sampled: true}
	}
	resp, err := c.roundTrip(f)
	if err != nil {
		return Frame{}, 0, err
	}
	if resp.Op == OpError {
		return Frame{}, 0, fmt.Errorf("proto: server: %s", resp.Payload)
	}
	if traced && resp.Ctx.Trace != f.Ctx.Trace {
		return Frame{}, 0, fmt.Errorf("proto: trace context lost in round trip (sent %s, got %s)",
			f.Ctx.Trace, resp.Ctx.Trace)
	}
	if wantOp != 0 && resp.Op != wantOp {
		return Frame{}, 0, fmt.Errorf("proto: unexpected response %v", resp.Op)
	}
	return resp, f.Ctx.Trace, nil
}

// readBatchFrame builds the OpReadBatch request for count chunks.
func readBatchFrame(lba uint64, count int) Frame {
	payload := make([]byte, 4)
	binary.LittleEndian.PutUint32(payload, uint32(count))
	return Frame{Op: OpReadBatch, LBA: lba, Payload: payload}
}

// WriteChunk stores one chunk at lba (write -> wait -> ack, §6.2).
func (c *Client) WriteChunk(lba uint64, data []byte) error {
	_, _, err := c.do(Frame{Op: OpWrite, LBA: lba, Payload: data}, OpAck, false)
	return err
}

// WriteBatch stores len(data)/chunkSize consecutive chunks starting at
// lba in one round trip.
func (c *Client) WriteBatch(lba uint64, data []byte) error {
	_, _, err := c.do(Frame{Op: OpWriteBatch, LBA: lba, Payload: data}, OpAck, false)
	return err
}

// ReadChunk fetches the chunk at lba (read -> wait -> ack with data).
func (c *Client) ReadChunk(lba uint64) ([]byte, error) {
	resp, _, err := c.do(Frame{Op: OpRead, LBA: lba}, OpData, false)
	return resp.Payload, err
}

// ReadBatch fetches count consecutive chunks starting at lba in one
// round trip.
func (c *Client) ReadBatch(lba uint64, count int) ([]byte, error) {
	resp, _, err := c.do(readBatchFrame(lba, count), OpData, false)
	return resp.Payload, err
}

// Compact asks the server for one GC pass at the given dead-fraction
// threshold and returns the aggregate result.
func (c *Client) Compact(minDeadFraction float64) (CompactSummary, error) {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], math.Float64bits(minDeadFraction))
	resp, _, err := c.do(Frame{Op: OpCompact, Payload: payload[:]}, 0, false)
	if err != nil {
		return CompactSummary{}, err
	}
	if resp.Op != OpAck || len(resp.Payload) != 40 {
		return CompactSummary{}, fmt.Errorf("proto: unexpected compact response %v (%d bytes)", resp.Op, len(resp.Payload))
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(resp.Payload[i*8:]) }
	return CompactSummary{
		ContainersCompacted: u(0),
		ChunksMoved:         u(1),
		ChunksDropped:       u(2),
		BytesReclaimed:      u(3),
		BytesMoved:          u(4),
	}, nil
}

// Checkpoint asks the server to persist its metadata checkpoint and
// truncate the WAL.
func (c *Client) Checkpoint() error {
	_, _, err := c.do(Frame{Op: OpCheckpoint}, OpAck, false)
	return err
}

// WriteChunkTraced is WriteChunk with a fresh sampled trace context
// riding the frame; it returns the trace ID.
func (c *Client) WriteChunkTraced(lba uint64, data []byte) (span.TraceID, error) {
	_, id, err := c.do(Frame{Op: OpWrite, LBA: lba, Payload: data}, OpAck, true)
	return id, err
}

// WriteBatchTraced is WriteBatch with a trace context; one trace ID
// covers the whole batch.
func (c *Client) WriteBatchTraced(lba uint64, data []byte) (span.TraceID, error) {
	_, id, err := c.do(Frame{Op: OpWriteBatch, LBA: lba, Payload: data}, OpAck, true)
	return id, err
}

// ReadChunkTraced is ReadChunk with a trace context.
func (c *Client) ReadChunkTraced(lba uint64) ([]byte, span.TraceID, error) {
	resp, id, err := c.do(Frame{Op: OpRead, LBA: lba}, OpData, true)
	return resp.Payload, id, err
}

// ReadBatchTraced is ReadBatch with a trace context.
func (c *Client) ReadBatchTraced(lba uint64, count int) ([]byte, span.TraceID, error) {
	resp, id, err := c.do(readBatchFrame(lba, count), OpData, true)
	return resp.Payload, id, err
}
