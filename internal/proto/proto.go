// Package proto implements the simplified storage access protocol of
// §6.2: instead of full iSCSI, a minimal framed protocol whose flow is
// write→ack and read→ack-with-data, carrying the operation type, the LBA
// and (for writes) the chunk payload.
//
// Frame layout (little endian):
//
//	byte  0      opcode (1 write, 2 read, 3 ack, 4 ack+data, 5 error);
//	             bit 7 (0x80) flags a trace-context extension
//	bytes 1-8    LBA
//	bytes 9-12   payload length
//	[bytes 13-29 trace context: trace ID (8), parent span ID (8),
//	             flags (1) — present only when bit 7 of the opcode is
//	             set; see internal/trace/span.Context]
//	bytes ...    payload (write data, read data, or error text)
//
// The trace extension is how a client-issued trace ID survives the
// wire: requests carry the caller's context, responses echo it, and
// frames without the flag are byte-identical to the pre-tracing
// protocol.
package proto

import (
	"encoding/binary"
	"fmt"
	"io"

	"fidr/internal/trace/span"
)

// Op is the frame opcode.
type Op byte

// Opcodes.
const (
	OpWrite Op = 1
	OpRead  Op = 2
	OpAck   Op = 3
	OpData  Op = 4
	OpError Op = 5
	// OpWriteBatch carries N consecutive chunks in one frame: payload
	// length must be a multiple of the chunk size; chunk i lands at
	// LBA+i. One ack covers the batch (the NIC buffers and acks writes
	// as a unit anyway, §5.3).
	OpWriteBatch Op = 6
	// OpReadBatch requests N consecutive chunks: the payload carries a
	// little-endian uint32 count; the response is one OpData frame with
	// the concatenated chunks.
	OpReadBatch Op = 7
	// OpCompact triggers a GC pass: the payload is the dead-fraction
	// threshold as little-endian float64 bits. The ack payload carries
	// five little-endian uint64s: containers compacted, chunks moved,
	// chunks dropped, bytes reclaimed, bytes moved.
	OpCompact Op = 8
	// OpCheckpoint persists the metadata checkpoint and truncates the
	// WAL (durable servers); empty payload both ways.
	OpCheckpoint Op = 9
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpAck:
		return "ack"
	case OpData:
		return "ack+data"
	case OpError:
		return "error"
	case OpWriteBatch:
		return "write-batch"
	case OpReadBatch:
		return "read-batch"
	case OpCompact:
		return "compact"
	case OpCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// MaxPayload bounds frame payloads (one chunk plus slack).
const MaxPayload = 1 << 20

const headerSize = 13

// opTraceFlag marks a frame carrying a trace-context extension between
// the header and the payload.
const opTraceFlag = 0x80

// Frame is one protocol message. Ctx, when valid, is the distributed
// trace context riding the frame (encoded as the header extension).
type Frame struct {
	Op      Op
	LBA     uint64
	Payload []byte
	Ctx     span.Context
}

// residentSize is the size of each of a connection's two resident
// buffers. A frame whose header and payload fit it leaves in one write
// and normally arrives in one read; it covers every fixed chunk and
// every CDC chunk up to the default 32-KiB maximum with room to spare.
// Larger frames (up to MaxPayload) pass through memory that is not
// retained, so a connection holds 2 x residentSize = 128 KiB however
// large the frames it has carried.
const residentSize = 64 << 10

// maxHeader is the header with its trace-context extension.
const maxHeader = headerSize + span.WireSize

// encoder is the frame encoder. A frame that fits buf's capacity is
// assembled there and leaves in one Write; a larger one goes header
// first, then the payload straight from the caller's slice. buf holds
// at least maxHeader bytes: residentSize on a connection, the bare
// header for the stateless Write.
type encoder struct{ buf []byte }

func (e *encoder) write(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("proto: payload %d exceeds limit", len(f.Payload))
	}
	b := e.buf[:headerSize]
	b[0] = byte(f.Op)
	binary.LittleEndian.PutUint64(b[1:], f.LBA)
	binary.LittleEndian.PutUint32(b[9:], uint32(len(f.Payload)))
	if f.Ctx.Valid() {
		b[0] |= opTraceFlag
		b = b[:maxHeader]
		f.Ctx.EncodeWire(b[headerSize:])
	}
	if len(b)+len(f.Payload) <= cap(b) {
		if _, err := w.Write(append(b, f.Payload...)); err != nil {
			return fmt.Errorf("proto: write frame: %w", err)
		}
		return nil
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("proto: write header: %w", err)
	}
	if _, err := w.Write(f.Payload); err != nil {
		return fmt.Errorf("proto: write payload: %w", err)
	}
	return nil
}

// Write encodes the frame to w: the connection encoder with nothing
// resident but the header.
func Write(w io.Writer, f Frame) error {
	var hdr [maxHeader]byte
	e := encoder{buf: hdr[:0]}
	return e.write(w, f)
}

// decoder is the frame decoder. It reads through buf, taking from the
// stream whatever has arrived, so a frame that fits normally costs one
// Read. The stateless Read runs it with no buffer at all: then every
// field is read exactly and nothing past the frame is consumed.
type decoder struct {
	buf  []byte // resident, fixed length; nil for the stateless Read
	r, w int    // buf[r:w] is read from the stream but not yet consumed
	// view makes a payload that fits buf a view of it, valid until the
	// next frame is read (the server, whose stores copy what they keep);
	// otherwise a payload is a fresh slice (the client, whose caller
	// keeps it).
	view bool
}

// next consumes the stream's next n bytes. With view set and n within
// the buffer the result aliases buf until the following call; otherwise
// it is a fresh slice, not retained here. Like io.ReadFull it returns
// io.EOF only when the stream ends before the first of the n bytes.
func (d *decoder) next(r io.Reader, n int, view bool) ([]byte, error) {
	have := d.w - d.r
	if view && n <= len(d.buf) {
		if have < n {
			d.w, d.r = copy(d.buf, d.buf[d.r:d.w]), 0
			m, err := io.ReadAtLeast(r, d.buf[d.w:], n-have)
			d.w += m
			if err != nil {
				return nil, midField(err, have)
			}
		}
		d.r += n
		return d.buf[d.r-n : d.r], nil
	}
	out := make([]byte, n)
	have = copy(out, d.buf[d.r:d.w])
	d.r += have
	if _, err := io.ReadFull(r, out[have:]); err != nil {
		return nil, midField(err, have)
	}
	return out, nil
}

// midField turns a clean end of stream into io.ErrUnexpectedEOF when
// buffered bytes of the field had already been taken.
func midField(err error, have int) error {
	if err == io.EOF && have > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (d *decoder) read(r io.Reader) (Frame, error) {
	hdr, err := d.next(r, headerSize, true)
	if err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("proto: read header: %w", err)
	}
	op := hdr[0]
	f := Frame{
		Op:  Op(op &^ opTraceFlag),
		LBA: binary.LittleEndian.Uint64(hdr[1:]),
	}
	n := binary.LittleEndian.Uint32(hdr[9:])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("proto: payload %d exceeds limit", n)
	}
	if f.Op < OpWrite || f.Op > OpCheckpoint {
		return Frame{}, fmt.Errorf("proto: bad opcode %d", op)
	}
	if op&opTraceFlag != 0 {
		ext, err := d.next(r, span.WireSize, true)
		if err != nil {
			return Frame{}, fmt.Errorf("proto: read trace context: %w", err)
		}
		if f.Ctx, err = span.DecodeWire(ext); err != nil {
			return Frame{}, fmt.Errorf("proto: %w", err)
		}
	}
	if n > 0 {
		if f.Payload, err = d.next(r, int(n), d.view); err != nil {
			return Frame{}, fmt.Errorf("proto: read payload: %w", err)
		}
	}
	return f, nil
}

// Read decodes one frame from r, consuming exactly the frame's bytes.
// Returns io.EOF cleanly at end of stream.
func Read(r io.Reader) (Frame, error) {
	var d decoder
	return d.read(r)
}
