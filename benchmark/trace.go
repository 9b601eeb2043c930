package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"fidr"
	"fidr/internal/blockcomp"
	"fidr/internal/core"
)

// Tracing lives entirely in this package: spans are recorded by
// decorators the benchmark injects around calls into each layer (the
// proto.Store handed to proto.Serve, the fidr.Store handed to NewAsync,
// Config.Compressor, the core.WALDevice under core.NewWAL) and by the
// client loop. Nothing inside the program is edited.

type layer uint8

const (
	spanRTT layer = iota
	spanAsync
	spanCore
	spanCompress
	spanDecompress
	spanWAL
	numLayers
)

var spanNames = [numLayers]string{"proto.rtt", "async.call", "core.call",
	"blockcomp.compress", "blockcomp.decompress", "wal.device"}

// span is one timed interval; start and end are nanoseconds since the
// tracer's base. Spans of one request share req, its index in the stream.
type span struct {
	start, end int64
	req        int32
	layer      layer
}

// tracer collects the spans of one traced pass in memory.
type tracer struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// sealed is the span count when the pass's clock stopped; the
	// read-back check that follows is not part of the workload.
	sealed int
	// cur is the request currently inside core.call; compressor and WAL
	// spans are its children (the server is single-writer).
	cur atomic.Int32
	// Requests carry no id through the program, so decorators recover it
	// from order: a connection is closed-loop and owns its LBAs, hence
	// the k-th call seen for a connection is that connection's k-th
	// request. asyncSeq[c] is touched only by connection c's serving
	// goroutine and coreSeq[c] only by the goroutine that owns the server.
	st                *stream
	asyncSeq, coreSeq []int
	flushNS           int64
}

func newTracer(st *stream) *tracer {
	// Upper bound: three entry-depth spans per request, a compress or
	// decompress child per request, and WAL writes+syncs per batch.
	return &tracer{
		base:     time.Now(),
		spans:    make([]span, 5*len(st.reqs)+64),
		st:       st,
		asyncSeq: make([]int, st.spec.Clients),
		coreSeq:  make([]int, st.spec.Clients),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// seal closes the pass: spans recorded from here on are ignored.
func (t *tracer) seal() { t.sealed = min(int(t.n.Load()), len(t.spans)) }

func (t *tracer) add(l layer, req int32, start, end int64) {
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{start: start, end: end, req: req, layer: l}
}

// next maps the next call seen for lba's connection to its request id.
func (t *tracer) next(seq []int, lba uint64) int32 {
	c := t.st.conn(lba)
	k := seq[c]
	seq[c]++
	if k >= len(t.st.parts[c]) {
		return -1
	}
	return t.st.parts[c][k]
}

// coreSpans decorates the server as the fidr.Store the async front-end
// (or the in-process client) drives. It also carries the traced surface
// so that Async keeps taking the path it takes with a bare server.
type coreSpans struct {
	srv *core.Server
	t   *tracer
}

func (c *coreSpans) begin(lba uint64) (int32, int64) {
	req := c.t.next(c.t.coreSeq, lba)
	c.t.cur.Store(req)
	return req, c.t.now()
}

func (c *coreSpans) Write(lba uint64, data []byte) error {
	req, s := c.begin(lba)
	err := c.srv.Write(lba, data)
	c.t.add(spanCore, req, s, c.t.now())
	return err
}

func (c *coreSpans) Read(lba uint64) ([]byte, error) {
	req, s := c.begin(lba)
	data, err := c.srv.Read(lba)
	c.t.add(spanCore, req, s, c.t.now())
	return data, err
}

func (c *coreSpans) WriteTraced(lba uint64, data []byte, tc *fidr.TraceContext) error {
	req, s := c.begin(lba)
	err := c.srv.WriteTraced(lba, data, tc)
	c.t.add(spanCore, req, s, c.t.now())
	return err
}

func (c *coreSpans) ReadTraced(lba uint64, tc *fidr.TraceContext) ([]byte, error) {
	req, s := c.begin(lba)
	data, err := c.srv.ReadTraced(lba, tc)
	c.t.add(spanCore, req, s, c.t.now())
	return data, err
}

func (c *coreSpans) Flush() error {
	c.t.cur.Store(-1)
	s := c.t.now()
	err := c.srv.Flush()
	c.t.flushNS = c.t.now() - s
	return err
}

// asyncSpans decorates the AsyncStore as the proto.Store the listener
// serves.
type asyncSpans struct {
	as *fidr.AsyncStore
	t  *tracer
}

func (a *asyncSpans) ChunkSize() int { return a.as.ChunkSize() }

func (a *asyncSpans) ReadRange(lba uint64, n int) ([]byte, error) { return a.as.ReadRange(lba, n) }

func (a *asyncSpans) Write(lba uint64, data []byte) error {
	req, s := a.t.next(a.t.asyncSeq, lba), a.t.now()
	err := a.as.Write(lba, data)
	a.t.add(spanAsync, req, s, a.t.now())
	return err
}

func (a *asyncSpans) Read(lba uint64) ([]byte, error) {
	req, s := a.t.next(a.t.asyncSeq, lba), a.t.now()
	data, err := a.as.Read(lba)
	a.t.add(spanAsync, req, s, a.t.now())
	return data, err
}

// timedCompressor decorates the LZ engine. It implements
// blockcomp.AppendCompressor: without CompressAppend the engine would
// silently take its allocating fallback and the traced run would measure
// a different program.
type timedCompressor struct {
	inner *blockcomp.LZ
	t     *tracer
}

var _ blockcomp.AppendCompressor = (*timedCompressor)(nil)

func (c *timedCompressor) Name() string { return c.inner.Name() }

func (c *timedCompressor) Compress(src []byte) ([]byte, error) {
	s := c.t.now()
	out, err := c.inner.Compress(src)
	c.t.add(spanCompress, c.t.cur.Load(), s, c.t.now())
	return out, err
}

func (c *timedCompressor) CompressAppend(dst, src []byte) ([]byte, error) {
	s := c.t.now()
	out, err := c.inner.CompressAppend(dst, src)
	c.t.add(spanCompress, c.t.cur.Load(), s, c.t.now())
	return out, err
}

func (c *timedCompressor) Decompress(src []byte, dstSize int) ([]byte, error) {
	s := c.t.now()
	out, err := c.inner.Decompress(src, dstSize)
	c.t.add(spanDecompress, c.t.cur.Load(), s, c.t.now())
	return out, err
}

// walProbe is the core.WALDevice under the durable workload's WAL. It
// always tracks how much of the log has been fsynced (the durability
// check truncates the file to that length); it times the device only
// when a tracer is attached.
type walProbe struct {
	f               *os.File
	t               *tracer
	written, synced int64
	bytes           int64
	syncNS          []int64
	busyNS          int64
}

var _ core.WALDevice = (*walProbe)(nil)

func (w *walProbe) ReadAt(p []byte, off int64) (int, error) { return w.f.ReadAt(p, off) }

func (w *walProbe) WriteAt(p []byte, off int64) (int, error) {
	var s int64
	if w.t != nil {
		s = w.t.now()
	}
	n, err := w.f.WriteAt(p, off)
	if end := off + int64(n); end > w.written {
		w.written = end
	}
	w.bytes += int64(n)
	if w.t != nil {
		e := w.t.now()
		w.busyNS += e - s
		w.t.add(spanWAL, w.t.cur.Load(), s, e)
	}
	return n, err
}

func (w *walProbe) Sync() error {
	var s int64
	if w.t != nil {
		s = w.t.now()
	}
	err := w.f.Sync()
	if err == nil {
		w.synced = w.written
	}
	if w.t != nil {
		e := w.t.now()
		w.busyNS += e - s
		w.syncNS = append(w.syncNS, e-s)
		w.t.add(spanWAL, w.t.cur.Load(), s, e)
	}
	return err
}

func (w *walProbe) Truncate(size int64) error {
	err := w.f.Truncate(size)
	if err == nil && size < w.written {
		w.written = size
	}
	return err
}

// layerTimes is what one traced pass's spans say about each layer.
type layerTimes struct {
	rtt                  []int64 // proto.rtt durations, sorted
	protoSelf, asyncSelf float64 // mean ns per request
	coreWrite, coreRead  []int64 // core.call durations by op, sorted
	coreSelf             float64 // mean ns per request
	compressNS           int64
	compressN            int
	decompressNS         int64
	decompressN          int
	// broken counts requests whose spans do not nest or whose self times
	// do not add up to the enclosing span exactly.
	broken int
}

// analyse folds the spans of one pass into per-layer self times. Self
// time is a span's duration minus the part of it its children cover;
// compressor lanes overlap, so children are merged before subtracting.
func (t *tracer) analyse() layerTimes {
	spans := t.spans[:t.sealed]
	n := len(t.st.reqs)
	type iv struct{ start, end int64 }
	entry := [3][]iv{make([]iv, n), make([]iv, n), make([]iv, n)}
	have := [3][]bool{make([]bool, n), make([]bool, n), make([]bool, n)}
	var kids []span
	var lt layerTimes
	for _, s := range spans {
		switch s.layer {
		case spanRTT, spanAsync, spanCore:
			if s.req >= 0 {
				entry[s.layer][s.req] = iv{s.start, s.end}
				have[s.layer][s.req] = true
			}
		case spanCompress:
			lt.compressNS += s.end - s.start
			lt.compressN++
			kids = append(kids, s)
		case spanDecompress:
			lt.decompressNS += s.end - s.start
			lt.decompressN++
			kids = append(kids, s)
		case spanWAL:
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].req != kids[j].req {
			return kids[i].req < kids[j].req
		}
		return kids[i].start < kids[j].start
	})
	covered := make([]int64, n) // merged child time inside each core.call
	for i := 0; i < len(kids); {
		req := kids[i].req
		var sum, hi int64 = 0, -1
		for ; i < len(kids) && kids[i].req == req; i++ {
			s, e := kids[i].start, kids[i].end
			if s < hi {
				s = hi
			}
			if e > s {
				sum += e - s
				hi = e
			}
		}
		if req >= 0 {
			covered[req] = sum
		}
	}
	var protoSelf, asyncSelf, coreSelf int64
	for i := 0; i < n; i++ {
		if !have[spanCore][i] {
			lt.broken++
			continue
		}
		c := entry[spanCore][i]
		d := c.end - c.start
		coreSelf += d - covered[i]
		if covered[i] > d {
			lt.broken++
		}
		if t.st.reqs[i].write {
			lt.coreWrite = append(lt.coreWrite, d)
		} else {
			lt.coreRead = append(lt.coreRead, d)
		}
		if !t.st.spec.Wire {
			continue
		}
		if !have[spanRTT][i] || !have[spanAsync][i] {
			lt.broken++
			continue
		}
		r, a := entry[spanRTT][i], entry[spanAsync][i]
		ps, as := (r.end-r.start)-(a.end-a.start), (a.end-a.start)-d
		if a.start < r.start || a.end > r.end || c.start < a.start || c.end > a.end ||
			ps+as+d != r.end-r.start {
			lt.broken++
		}
		protoSelf += ps
		asyncSelf += as
		lt.rtt = append(lt.rtt, r.end-r.start)
	}
	lt.protoSelf = float64(protoSelf) / float64(n)
	lt.asyncSelf = float64(asyncSelf) / float64(n)
	lt.coreSelf = float64(coreSelf) / float64(n)
	slices.Sort(lt.rtt)
	slices.Sort(lt.coreWrite)
	slices.Sort(lt.coreRead)
	return lt
}

// writeSpans writes the pass's spans as JSON lines: request id, span
// name, the span that caused it, start and end.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	parent := [numLayers]string{"", "proto.rtt", "async.call", "core.call", "core.call", "core.call"}
	if !t.st.spec.Wire {
		parent[spanCore] = ""
	}
	var buf []byte
	for _, s := range t.spans[:t.sealed] {
		op := "flush"
		if s.req >= 0 {
			op = "read"
			if t.st.reqs[s.req].write {
				op = "write"
			}
		}
		buf = append(buf[:0], `{"req":`...)
		buf = strconv.AppendInt(buf, int64(s.req), 10)
		buf = append(buf, `,"op":"`...)
		buf = append(buf, op...)
		buf = append(buf, `","name":"`...)
		buf = append(buf, spanNames[s.layer]...)
		buf = append(buf, `","parent":"`...)
		buf = append(buf, parent[s.layer]...)
		buf = append(buf, `","start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if d := t.dropped.Load(); d > 0 {
		return fmt.Errorf("%s: %d spans dropped (buffer too small)", path, d)
	}
	return f.Close()
}
