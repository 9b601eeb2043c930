// Package span is the one trace model: typed trace and span
// identifiers, the propagation context that rides in a wire header, the
// TraceContext every traced entry point takes, the Span record every
// layer emits (proto listener, async queue, core request and pipeline
// stages, WAL commit), and the Collector that retains finished request
// trees and serves them three ways — recent (/traces), slow-retained
// (/traces/slow) and by trace ID (/traces/spans). One client-issued
// trace ID resolves to the full proto -> queue -> core -> lanes -> WAL
// -> SSD story, and an untraced request is the same tree under a
// locally minted ID.
//
// Besides the standard library the package imports only
// internal/metrics, for the text-table renderer the views share with
// the rest of the daemon's endpoints.
package span

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request tree. Zero means "not
// traced"; identifiers render as 16 lowercase hex digits.
type TraceID uint64

// SpanID identifies one span within a trace. Zero means "no parent" /
// "unset".
type SpanID uint64

// String renders the ID as fixed-width hex (the exposition and
// endpoint format).
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the ID as fixed-width hex.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// ParseTraceID parses the hex form accepted from CLIs and query
// strings: 1..16 hex digits, optionally 0x-prefixed.
func ParseTraceID(s string) (TraceID, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("span: trace id %q must be 1..16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("span: trace id %q is not hex: %v", s, err)
	}
	if v == 0 {
		return 0, fmt.Errorf("span: trace id zero is reserved (means untraced)")
	}
	return TraceID(v), nil
}

// idState seeds the process-local ID sequence from the wall clock so
// two daemons started back to back do not collide; each NewTraceID /
// NewSpanID is one atomic add plus a splitmix64 finalizer (no locks on
// the hot path).
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ 0x9e3779b97f4a7c15)
}

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 { // zero is the "untraced" sentinel
		x = 1
	}
	return x
}

// NewTraceID allocates a fresh trace identifier.
func NewTraceID() TraceID { return TraceID(nextID()) }

// NewSpanID allocates a fresh span identifier.
func NewSpanID() SpanID { return SpanID(nextID()) }

// Context is the propagation state that crosses layer and wire
// boundaries: which trace the request belongs to, which span is the
// caller's active one (the parent of whatever the callee opens), and
// whether the trace is sampled into the span collector.
type Context struct {
	Trace   TraceID
	Parent  SpanID
	Sampled bool
}

// Valid reports whether the context carries a trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// Child returns a copy of the context re-parented under span id (what
// a layer passes down after opening its own span).
func (c Context) Child(id SpanID) Context {
	c.Parent = id
	return c
}

// TraceContext is what a layer hands the layer below with a request:
// the propagation Context (zero when the request carries no trace)
// plus what the front-end already knows about it. A nil *TraceContext
// means "nothing to hand down". Callees read it during the call and
// never retain it, so a caller may reuse one value across requests.
type TraceContext struct {
	Context
	// Op overrides the request's op label when non-empty (the async
	// pipeline tags "awrite"/"aread").
	Op string
	// Start, when set, is the front-end submission time; the request's
	// total then includes queueing and routing.
	Start time.Time
	// QueueWait is the time the request sat in a front-end queue before
	// a server accepted it; it feeds the queue_wait stage histogram.
	QueueWait time.Duration
}

// Wire returns the propagation half of tc (zero for a nil tc).
func (tc *TraceContext) Wire() Context {
	if tc == nil {
		return Context{}
	}
	return tc.Context
}

// WireSize is the encoded size of a Context: trace ID (8) + parent
// span ID (8) + flags (1), little endian.
const WireSize = 17

const flagSampled = 0x01

// EncodeWire writes the fixed-size wire form into b (which must be at
// least WireSize bytes).
func (c Context) EncodeWire(b []byte) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(c.Trace))
	binary.LittleEndian.PutUint64(b[8:16], uint64(c.Parent))
	var flags byte
	if c.Sampled {
		flags |= flagSampled
	}
	b[16] = flags
}

// DecodeWire parses the fixed-size wire form.
func DecodeWire(b []byte) (Context, error) {
	if len(b) < WireSize {
		return Context{}, fmt.Errorf("span: trace context truncated (%d of %d bytes)", len(b), WireSize)
	}
	return Context{
		Trace:   TraceID(binary.LittleEndian.Uint64(b[0:8])),
		Parent:  SpanID(binary.LittleEndian.Uint64(b[8:16])),
		Sampled: b[16]&flagSampled != 0,
	}, nil
}

// Span is one completed timed operation within a trace. Name is a
// stable slug ("proto.write_batch", "async.queue", "core.awrite",
// "hash", "wal_fsync", ...). Bytes and QueueDepth are the per-span
// annotations the storage pipeline cares about: payload bytes moved by
// the span and the queue depth observed at submission (0 = unset).
type Span struct {
	Trace      TraceID       `json:"trace"`
	ID         SpanID        `json:"id"`
	Parent     SpanID        `json:"parent,omitempty"`
	Name       string        `json:"name"`
	Start      time.Time     `json:"start"`
	Dur        time.Duration `json:"dur_ns"`
	Bytes      uint64        `json:"bytes,omitempty"`
	QueueDepth int           `json:"queue_depth,omitempty"`
	LBA        uint64        `json:"lba,omitempty"`
	Group      int           `json:"group"`
}
