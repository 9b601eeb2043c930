package fidr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fidr/internal/metrics"
	"fidr/internal/metrics/health"
	"fidr/internal/trace/span"
)

// Store is the chunk-store surface shared by Server and Cluster.
// Cluster is a plain synchronous Store; concurrency across its groups
// is Async's, which unwraps it into one worker per group.
type Store interface {
	Write(lba uint64, data []byte) error
	Read(lba uint64) ([]byte, error)
	Flush() error
}

// tracedStore is the traced variant of Store. Server implements it; the
// async front-end uses it to carry the measured queue wait into the
// back-end's per-request trace.
type tracedStore interface {
	WriteTraced(lba uint64, data []byte, tc *TraceContext) error
	ReadTraced(lba uint64, tc *TraceContext) ([]byte, error)
}

var (
	_ Store       = (*Server)(nil)
	_ Store       = (*Cluster)(nil)
	_ tracedStore = (*Server)(nil)
)

// Async is a pipelined front-end over a Store: callers submit requests
// without waiting, a fixed worker pool owns the store(s), and bounded
// queues provide backpressure — the software shape of the paper's device
// manager, which keeps every accelerator busy while requests stream in.
//
// A plain Server gets one group (it is single-owner by design). A
// Cluster gets one per device group, so groups run genuinely in
// parallel, matching §5.6's independent per-switch pipelines.
//
// A group's owner is whoever holds its owner lock: the group's worker,
// serving what is queued, or a caller that waits for its result anyway
// and found nothing queued — it then runs its request itself instead of
// paying two goroutine hand-offs to have the idle worker do it.
type Async struct {
	groups []*group
	route  func(lba uint64) int
	wg     sync.WaitGroup

	// completed counts finished requests across all groups (the progress
	// signal for stuck-queue detection).
	completed atomic.Uint64

	// Front-end metrics; nil until EnableObservability.
	writes, reads *metrics.Counter
	queueWaitNS   *metrics.Histogram
	inflight      *metrics.Gauge
	// col, when set, receives one "async.queue" span per sampled traced
	// request (the queue-wait link in the distributed trace tree).
	col *span.Collector

	// mu orders submissions against Close. Every submission holds the
	// read lock from its closed check to its queue send or the end of its
	// inline run; Close sets closed under the write lock before it closes
	// the queues. So nothing is sent on a closed queue and no inline run
	// overlaps a worker's final Flush.
	mu     sync.RWMutex
	closed bool
}

// group is one store with its queue, worker and liveness heartbeat.
type group struct {
	s  Store
	ts tracedStore // s's traced surface; nil when it has none
	q  chan asyncReq
	// hb brackets every unit of work on the store, whoever runs it; the
	// health plane's watchdog probes it.
	hb health.Heartbeat
	// owner is held while a request, a maintenance closure or the final
	// Flush runs against s: the store is single-owner.
	owner sync.Mutex
	// pending counts submissions queued and not yet finished. A blocking
	// caller serves itself only when it is zero, so it never overtakes an
	// earlier submission of its own that it did not wait for.
	pending atomic.Int64
	// tc is refilled per request under owner: the back-end reads it
	// during the call and never retains it.
	tc TraceContext
	// flushErr is the worker's final Flush result, read by Close once the
	// worker has exited.
	flushErr error
}

type asyncReq struct {
	write  bool
	lba    uint64
	data   []byte
	submit time.Time // submission time; queue wait = service start - submit
	ctx    span.Context
	done   chan AsyncResult // queued submissions only
	// fn, when set, is a maintenance closure run as the group's owner
	// against its store (GC, checkpoint, capacity reporting — anything
	// that must see quiesced single-writer state).
	fn func(s Store) error
}

// AsyncResult carries a completed request's outcome.
type AsyncResult struct {
	LBA  uint64
	Data []byte // read payload
	Err  error
}

var errAsyncClosed = errors.New("fidr: async store closed")

// NewAsync builds a pipelined front-end. depth is the per-group queue
// depth (backpressure bound).
func NewAsync(s Store, depth int) (*Async, error) {
	if depth < 1 {
		return nil, fmt.Errorf("fidr: queue depth %d", depth)
	}
	a := &Async{route: func(uint64) int { return 0 }}
	stores := []Store{s}
	if c, ok := s.(*Cluster); ok {
		a.route = c.GroupFor
		stores = stores[:0]
		for _, srv := range c.groups {
			stores = append(stores, srv)
		}
	}
	for _, st := range stores {
		g := &group{s: st, q: make(chan asyncReq, depth)}
		g.ts, _ = st.(tracedStore)
		a.groups = append(a.groups, g)
		a.wg.Add(1)
		go a.worker(g)
	}
	return a, nil
}

// Workers reports the worker (and queue) count: one for a Server, one
// per device group for a Cluster.
func (a *Async) Workers() int { return len(a.groups) }

// WorkerHeartbeat returns group i's liveness heartbeat for watchdog
// probing (health.HeartbeatProbe).
func (a *Async) WorkerHeartbeat(i int) *health.Heartbeat { return &a.groups[i].hb }

// QueueDepth reports queue i's current depth (requests waiting plus
// being picked up), the companion signal for health.ProgressProbe.
func (a *Async) QueueDepth(i int) int { return len(a.groups[i].q) }

// Completed reports the total requests finished on all groups since
// start (monotonic; the progress counter for stuck-queue probes).
func (a *Async) Completed() uint64 { return a.completed.Load() }

// DepthGatherer exposes per-worker queue depths as gauges
// (async.queue_depth.g<i>), derived at scrape time. Like all
// process-wide health series it belongs once at the top of a composed
// view, not inside group registries.
func (a *Async) DepthGatherer() metrics.Gatherer {
	return metrics.GathererFunc(func() []metrics.Metric {
		out := make([]metrics.Metric, len(a.groups))
		for i, g := range a.groups {
			out[i] = metrics.Metric{
				Kind: "gauge", Name: fmt.Sprintf("async.queue_depth.g%d", i),
				Value: float64(len(g.q)),
			}
		}
		return out
	})
}

// EnableObservability registers the front-end's own series on reg:
// async.writes / async.reads counters, the async.queue_wait.ns
// histogram, and the async.inflight gauge. Call before submitting
// traffic. The queue wait also reaches the back-end's stage histograms
// and request traces via TraceContext.QueueWait, when the store has
// observability enabled too.
func (a *Async) EnableObservability(reg *metrics.Registry) {
	a.writes = reg.Counter("async.writes")
	a.reads = reg.Counter("async.reads")
	a.queueWaitNS = reg.Histogram("async.queue_wait.ns")
	a.inflight = reg.Gauge("async.inflight")
}

// SetSpanCollector publishes the front-end's queue spans into col.
// Call before submitting traffic.
func (a *Async) SetSpanCollector(col *span.Collector) { a.col = col }

// worker serves g's queue until Close, then flushes the store.
func (a *Async) worker(g *group) {
	defer a.wg.Done()
	for req := range g.q {
		res := a.serve(g, req)
		g.pending.Add(-1)
		req.done <- res
	}
	// Drain point: each worker flushes its own store on shutdown;
	// failures surface through Close.
	g.owner.Lock()
	g.flushErr = g.s.Flush()
	g.owner.Unlock()
}

// serve runs req against g's store as the group's owner. Every request
// and maintenance closure goes through here, from the worker or from a
// blocking caller, so the heartbeat, the queue-wait observation (for an
// inline run: the wait for the owner lock), the queue span and the
// counters do not depend on who ran it.
func (a *Async) serve(g *group, req asyncReq) AsyncResult {
	g.owner.Lock()
	defer g.owner.Unlock()
	if req.fn != nil {
		// Maintenance op: it owns the store exactly like a write does. It
		// is bracketed by the heartbeat too — a hung GC or checkpoint is
		// exactly the stall the watchdog exists to catch.
		g.hb.Begin("")
		err := req.fn(g.s)
		g.hb.End()
		return AsyncResult{Err: err}
	}
	var traceID string
	if req.ctx.Valid() {
		traceID = req.ctx.Trace.String()
	}
	g.hb.Begin(traceID)
	wait := time.Since(req.submit)
	if a.queueWaitNS != nil {
		a.queueWaitNS.Observe(float64(wait.Nanoseconds()))
	}
	res := AsyncResult{LBA: req.lba}
	if g.ts != nil {
		g.tc = TraceContext{Start: req.submit, QueueWait: wait}
		if req.ctx.Valid() {
			// The queue gets its own tree span between the caller's
			// span and the core request, so the rendered trace shows
			// where the request sat. The core request then parents
			// under the queue span.
			queueID := span.NewSpanID()
			if req.ctx.Sampled && a.col != nil {
				a.col.Add(span.Span{
					Trace: req.ctx.Trace, ID: queueID, Parent: req.ctx.Parent,
					Name: "async.queue", Start: req.submit, Dur: wait,
					QueueDepth: len(g.q) + 1, LBA: req.lba,
				})
			}
			g.tc.Context = req.ctx.Child(queueID)
		}
		if req.write {
			g.tc.Op = "awrite"
			res.Err = g.ts.WriteTraced(req.lba, req.data, &g.tc)
		} else {
			g.tc.Op = "aread"
			res.Data, res.Err = g.ts.ReadTraced(req.lba, &g.tc)
		}
	} else if req.write {
		res.Err = g.s.Write(req.lba, req.data)
	} else {
		res.Data, res.Err = g.s.Read(req.lba)
	}
	if a.inflight != nil {
		a.inflight.Add(-1)
	}
	a.completed.Add(1)
	g.hb.End()
	return res
}

// admit is the front half of every read or write submission: refuse
// after Close, count it, stamp it, route it. The caller holds a.mu's
// read lock and keeps it until req is queued or served.
func (a *Async) admit(req *asyncReq) (*group, error) {
	if a.closed {
		return nil, errAsyncClosed
	}
	if a.writes != nil {
		if req.write {
			a.writes.Inc()
		} else {
			a.reads.Inc()
		}
		a.inflight.Add(1)
	}
	req.submit = time.Now()
	return a.groups[a.route(req.lba)], nil
}

// enqueue puts req on g's queue for the worker; req.done receives the
// result.
func (g *group) enqueue(req asyncReq) {
	g.pending.Add(1)
	g.q <- req
}

// submit queues req without waiting for it; the returned channel
// delivers one result.
func (a *Async) submit(req asyncReq) <-chan AsyncResult {
	req.done = make(chan AsyncResult, 1)
	a.mu.RLock()
	defer a.mu.RUnlock()
	if g, err := a.admit(&req); err != nil {
		req.done <- AsyncResult{LBA: req.lba, Err: err}
	} else {
		g.enqueue(req)
	}
	return req.done
}

// doneChans recycles the result channels of blocking submissions that
// had to queue: each carries exactly one result, received before it is
// put back.
var doneChans = sync.Pool{New: func() any { return make(chan AsyncResult, 1) }}

// call submits req and waits for its result. The caller is blocked for
// the duration, so req.data is borrowed, not copied. When nothing is
// queued on the group the caller becomes its owner and runs the request
// itself; otherwise it queues behind what is there, which keeps a
// caller's blocking call behind its own earlier un-awaited submissions.
func (a *Async) call(req asyncReq) AsyncResult {
	a.mu.RLock()
	g, err := a.admit(&req)
	if err != nil {
		a.mu.RUnlock()
		return AsyncResult{LBA: req.lba, Err: err}
	}
	if g.pending.Load() == 0 {
		res := a.serve(g, req)
		a.mu.RUnlock()
		return res
	}
	req.done = doneChans.Get().(chan AsyncResult)
	g.enqueue(req)
	a.mu.RUnlock()
	res := <-req.done
	doneChans.Put(req.done)
	return res
}

// WriteAsync submits a write; the returned channel delivers one result.
// The data slice is copied before submission. tc, when it carries a
// wire trace context, rides through the queue into the back-end
// pipeline; untraced callers pass nil.
func (a *Async) WriteAsync(lba uint64, data []byte, tc *TraceContext) <-chan AsyncResult {
	cp := make([]byte, len(data))
	copy(cp, data)
	return a.submit(asyncReq{write: true, lba: lba, data: cp, ctx: tc.Wire()})
}

// ReadAsync submits a read; the returned channel delivers the payload.
// tc is as for WriteAsync.
func (a *Async) ReadAsync(lba uint64, tc *TraceContext) <-chan AsyncResult {
	return a.submit(asyncReq{lba: lba, ctx: tc.Wire()})
}

// Maintenance runs fn once per group, each invocation as that group's
// owner against its store (a single Server, or one cluster group). The
// call waits for every invocation and returns the first error. This is
// how GC, checkpointing and capacity reporting reach single-writer
// server state without racing the write path: the closure runs between
// requests, never beside them.
func (a *Async) Maintenance(fn func(s Store) error) error {
	a.mu.RLock()
	if a.closed {
		a.mu.RUnlock()
		return errAsyncClosed
	}
	chans := make([]chan AsyncResult, len(a.groups))
	for i, g := range a.groups {
		chans[i] = make(chan AsyncResult, 1)
		g.enqueue(asyncReq{fn: fn, done: chans[i]})
	}
	a.mu.RUnlock()
	var first error
	for _, ch := range chans {
		if res := <-ch; res.Err != nil && first == nil {
			first = res.Err
		}
	}
	return first
}

// Close stops accepting requests, drains the queues, flushes every
// underlying store and returns the first flush error.
func (a *Async) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()
	for _, g := range a.groups {
		close(g.q)
	}
	a.wg.Wait()
	for _, g := range a.groups {
		if g.flushErr != nil {
			return g.flushErr
		}
	}
	return nil
}
