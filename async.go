package fidr

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fidr/internal/metrics"
	"fidr/internal/metrics/health"
	"fidr/internal/trace/span"
)

// Store is the chunk-store surface shared by Server and Cluster.
type Store interface {
	Write(lba uint64, data []byte) error
	Read(lba uint64) ([]byte, error)
	Flush() error
}

// tracedStore is the traced variant of Store. Both Server and Cluster
// implement it; the async front-end uses it to carry the measured queue
// wait into the back-end's per-request trace.
type tracedStore interface {
	WriteTraced(lba uint64, data []byte, tc *TraceContext) error
	ReadTraced(lba uint64, tc *TraceContext) ([]byte, error)
}

var (
	_ Store       = (*Server)(nil)
	_ Store       = (*Cluster)(nil)
	_ tracedStore = (*Server)(nil)
	_ tracedStore = (*Cluster)(nil)
)

// Async is a pipelined front-end over a Store: callers submit requests
// without waiting, a fixed worker pool owns the store(s), and bounded
// queues provide backpressure — the software shape of the paper's device
// manager, which keeps every accelerator busy while requests stream in.
//
// A plain Server gets one worker (it is single-owner by design). A
// Cluster gets one worker per device group, so groups run genuinely in
// parallel, matching §5.6's independent per-switch pipelines.
type Async struct {
	queues []chan asyncReq
	route  func(lba uint64) int
	wg     sync.WaitGroup

	// hbs holds one liveness heartbeat per worker; the health plane's
	// watchdog probes them. completed counts finished requests across
	// all workers (the progress signal for stuck-queue detection).
	hbs       []*health.Heartbeat
	completed atomic.Uint64

	// Front-end metrics; nil until EnableObservability.
	writes, reads *metrics.Counter
	queueWaitNS   *metrics.Histogram
	inflight      *metrics.Gauge
	// col, when set, receives one "async.queue" span per sampled traced
	// request (the queue-wait link in the distributed trace tree).
	col *span.Collector

	mu       sync.Mutex
	closed   bool
	flushErr error
}

type asyncReq struct {
	write  bool
	lba    uint64
	data   []byte
	submit time.Time // enqueue time; queue wait = dequeue - submit
	ctx    span.Context
	done   chan AsyncResult
	// fn, when set, is a maintenance closure run on the worker goroutine
	// against the store it owns (GC, checkpoint, capacity reporting —
	// anything that must see quiesced single-writer state).
	fn func(s Store) error
}

// AsyncResult carries a completed request's outcome.
type AsyncResult struct {
	LBA  uint64
	Data []byte // read payload
	Err  error
}

// NewAsync builds a pipelined front-end. depth is the per-worker queue
// depth (backpressure bound).
func NewAsync(s Store, depth int) (*Async, error) {
	if depth < 1 {
		return nil, fmt.Errorf("fidr: queue depth %d", depth)
	}
	a := &Async{}
	if c, ok := s.(*Cluster); ok {
		a.queues = make([]chan asyncReq, c.Groups())
		a.hbs = make([]*health.Heartbeat, c.Groups())
		a.route = c.GroupFor
		for i := range a.queues {
			a.queues[i] = make(chan asyncReq, depth)
			a.hbs[i] = &health.Heartbeat{}
			a.wg.Add(1)
			go a.worker(c.serving(i), a.queues[i], a.hbs[i])
		}
		return a, nil
	}
	a.queues = []chan asyncReq{make(chan asyncReq, depth)}
	a.hbs = []*health.Heartbeat{{}}
	a.route = func(uint64) int { return 0 }
	a.wg.Add(1)
	go a.worker(s, a.queues[0], a.hbs[0])
	return a, nil
}

// Workers reports the worker (and queue) count: one for a Server, one
// per device group for a Cluster.
func (a *Async) Workers() int { return len(a.queues) }

// WorkerHeartbeat returns worker i's liveness heartbeat for watchdog
// probing (health.HeartbeatProbe).
func (a *Async) WorkerHeartbeat(i int) *health.Heartbeat { return a.hbs[i] }

// QueueDepth reports queue i's current depth (requests waiting plus
// being picked up), the companion signal for health.ProgressProbe.
func (a *Async) QueueDepth(i int) int { return len(a.queues[i]) }

// Completed reports the total requests finished by all workers since
// start (monotonic; the progress counter for stuck-queue probes).
func (a *Async) Completed() uint64 { return a.completed.Load() }

// DepthGatherer exposes per-worker queue depths as gauges
// (async.queue_depth.g<i>), derived at scrape time. Like all
// process-wide health series it belongs once at the top of a composed
// view, not inside group registries.
func (a *Async) DepthGatherer() metrics.Gatherer {
	return metrics.GathererFunc(func() []metrics.Metric {
		out := make([]metrics.Metric, len(a.queues))
		for i := range a.queues {
			out[i] = metrics.Metric{
				Kind: "gauge", Name: fmt.Sprintf("async.queue_depth.g%d", i),
				Value: float64(len(a.queues[i])),
			}
		}
		return out
	})
}

// InjectStall is a test hook: it enqueues a maintenance op on worker
// 0's queue that sleeps for d, simulating a wedged worker (the
// heartbeat stays busy without beating, queued work stops draining).
// Non-blocking: a full queue returns an error instead of deadlocking
// the caller. The result channel is drained internally.
//
// It exists for the watchdog's end-to-end test (fidrd -debug-hooks
// exposes it as POST /debug/stall) and must never be reachable in
// production configurations.
func (a *Async) InjectStall(d time.Duration) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("fidr: async store closed")
	}
	q := a.queues[0]
	a.mu.Unlock()
	done := make(chan AsyncResult, 1)
	select {
	case q <- asyncReq{fn: func(Store) error { time.Sleep(d); return nil }, done: done}:
		return nil
	default:
		return fmt.Errorf("fidr: queue full, stall not injected")
	}
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

func (a *Async) worker(s Store, q chan asyncReq, hb *health.Heartbeat) {
	defer a.wg.Done()
	ts, traced := s.(tracedStore)
	// One context per worker, refilled per request: the back-end reads
	// it during the call and never retains it.
	tc := new(TraceContext)
	for req := range q {
		if req.fn != nil {
			// Maintenance op: runs with the worker between requests, so
			// it owns the store exactly like a write does. It is bracketed
			// by the heartbeat too — a hung GC or checkpoint is exactly
			// the stall the watchdog exists to catch.
			hb.Begin("")
			req.done <- AsyncResult{Err: req.fn(s)}
			hb.End()
			continue
		}
		var traceID string
		if req.ctx.Valid() {
			traceID = req.ctx.Trace.String()
		}
		hb.Begin(traceID)
		wait := time.Since(req.submit)
		if a.queueWaitNS != nil {
			a.queueWaitNS.Observe(float64(wait.Nanoseconds()))
		}
		var res AsyncResult
		res.LBA = req.lba
		if traced {
			*tc = TraceContext{Start: req.submit, QueueWait: wait}
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
						QueueDepth: len(q) + 1, LBA: req.lba,
					})
				}
				tc.Context = req.ctx.Child(queueID)
			}
			if req.write {
				tc.Op = "awrite"
				res.Err = ts.WriteTraced(req.lba, req.data, tc)
			} else {
				tc.Op = "aread"
				res.Data, res.Err = ts.ReadTraced(req.lba, tc)
			}
		} else if req.write {
			res.Err = s.Write(req.lba, req.data)
		} else {
			res.Data, res.Err = s.Read(req.lba)
		}
		if a.inflight != nil {
			a.inflight.Add(-1)
		}
		a.completed.Add(1)
		hb.End()
		req.done <- res
	}
	// Drain point: each worker flushes its own store on shutdown;
	// failures surface through Close.
	if err := s.Flush(); err != nil {
		a.mu.Lock()
		if a.flushErr == nil {
			a.flushErr = err
		}
		a.mu.Unlock()
	}
}

// WriteAsync submits a write; the returned channel delivers one result.
// The data slice is copied before submission. tc, when it carries a
// wire trace context, rides through the queue into the back-end
// pipeline; untraced callers pass nil.
func (a *Async) WriteAsync(lba uint64, data []byte, tc *TraceContext) <-chan AsyncResult {
	done := make(chan AsyncResult, 1)
	cp := make([]byte, len(data))
	copy(cp, data)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		done <- AsyncResult{LBA: lba, Err: fmt.Errorf("fidr: async store closed")}
		return done
	}
	q := a.queues[a.route(lba)]
	a.mu.Unlock()
	if a.writes != nil {
		a.writes.Inc()
		a.inflight.Add(1)
	}
	q <- asyncReq{write: true, lba: lba, data: cp, submit: time.Now(), ctx: tc.Wire(), done: done}
	return done
}

// ReadAsync submits a read; the returned channel delivers the payload.
// tc is as for WriteAsync.
func (a *Async) ReadAsync(lba uint64, tc *TraceContext) <-chan AsyncResult {
	done := make(chan AsyncResult, 1)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		done <- AsyncResult{LBA: lba, Err: fmt.Errorf("fidr: async store closed")}
		return done
	}
	q := a.queues[a.route(lba)]
	a.mu.Unlock()
	if a.reads != nil {
		a.reads.Inc()
		a.inflight.Add(1)
	}
	q <- asyncReq{lba: lba, submit: time.Now(), ctx: tc.Wire(), done: done}
	return done
}

// Write submits and waits (synchronous convenience).
func (a *Async) Write(lba uint64, data []byte) error {
	return (<-a.WriteAsync(lba, data, nil)).Err
}

// Read submits and waits.
func (a *Async) Read(lba uint64) ([]byte, error) {
	r := <-a.ReadAsync(lba, nil)
	return r.Data, r.Err
}

// Maintenance runs fn once per worker, each invocation on the worker
// goroutine against the store that worker owns (a single Server, or one
// cluster group per worker). The call waits for every invocation and
// returns the first error. This is how GC, checkpointing and capacity
// reporting reach single-writer server state without racing the write
// path: the closure runs between queued requests, never beside them.
func (a *Async) Maintenance(fn func(s Store) error) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("fidr: async store closed")
	}
	chans := make([]chan AsyncResult, len(a.queues))
	for i, q := range a.queues {
		chans[i] = make(chan AsyncResult, 1)
		q <- asyncReq{fn: fn, done: chans[i]}
	}
	a.mu.Unlock()
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
	for _, q := range a.queues {
		close(q)
	}
	a.wg.Wait()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushErr
}
