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
// is Async's, which unwraps it into one owner lock per group.
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

// readAppender is the optional store surface through which a read lands
// in the caller's buffer: Server implements it, so a read through Async
// allocates nothing when the caller passes room for the chunk.
type readAppender interface {
	ReadAppend(dst []byte, lba uint64, tc *TraceContext) ([]byte, error)
}

var (
	_ Store        = (*Server)(nil)
	_ Store        = (*Cluster)(nil)
	_ tracedStore  = (*Server)(nil)
	_ readAppender = (*Server)(nil)
)

// Async is the concurrent front-end over a Store — the software shape of
// the paper's device manager, which admits requests to the device
// pipelines and keeps each one single-owner.
//
// A plain Server gets one group (it is single-owner by design). A
// Cluster gets one per device group, so groups run genuinely in
// parallel, matching §5.6's independent per-switch pipelines.
//
// Async starts no goroutine. Every request runs on its caller, which is
// admitted to its group (at most depth callers at once) and then serves
// itself as the group's owner: whoever holds the group's owner lock.
type Async struct {
	groups []*group
	route  func(lba uint64) int

	// Front-end metrics; nil until EnableObservability.
	writes, reads *metrics.Counter
	inflight      *metrics.Gauge
	// col, when set, receives one "async.queue" span per sampled traced
	// request (the queue-wait link in the distributed trace tree).
	col *span.Collector

	// mu orders requests and maintenance passes against Close. Each holds
	// the read lock from its closed check to its end; Close sets closed
	// under the write lock, so it waits them out and nothing reaches a
	// store after its final Flush.
	mu     sync.RWMutex
	closed bool
}

// group is one store with its admission bound and liveness heartbeat.
type group struct {
	s  Store
	ts tracedStore  // s's traced surface; nil when it has none
	ra readAppender // s's append-read surface; nil when it has none
	// admitted holds one token per caller admitted to the group, waiting
	// for its owner lock or holding it; its capacity is the depth bound.
	admitted chan struct{}
	// hb brackets every unit of work on the store; the health plane's
	// watchdog probes it.
	hb health.Heartbeat
	// completed counts the group's finished requests: the progress signal
	// for its stuck-queue probe, so another group's traffic cannot reset it.
	completed atomic.Uint64
	// owner is held while a request or a maintenance closure runs against
	// s: the store is single-owner. Close's final Flush needs no owner:
	// it holds mu's write lock, which excludes both.
	owner sync.Mutex
	// tc is refilled per request under owner: the back-end reads it
	// during the call and never retains it.
	tc TraceContext
}

type asyncReq struct {
	write bool
	lba   uint64
	data  []byte // a write's chunk
	// dst is what a read appends its chunk to: the caller's buffer, or
	// nil for a fresh slice.
	dst    []byte
	submit time.Time // admission time; queue wait = service start - submit
	ctx    span.Context
}

var errAsyncClosed = errors.New("fidr: async store closed")

// NewAsync builds the front-end. depth is the per-group admission bound:
// how many callers may wait for or hold a group's owner at once.
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
		g := &group{s: st, admitted: make(chan struct{}, depth)}
		g.ts, _ = st.(tracedStore)
		g.ra, _ = st.(readAppender)
		a.groups = append(a.groups, g)
	}
	return a, nil
}

// Workers reports the group count: one for a Server, one per device
// group for a Cluster.
func (a *Async) Workers() int { return len(a.groups) }

// WorkerHeartbeat returns group i's liveness heartbeat for watchdog
// probing (health.HeartbeatProbe).
func (a *Async) WorkerHeartbeat(i int) *health.Heartbeat { return &a.groups[i].hb }

// QueueDepth reports how many callers are admitted to group i, waiting
// for its owner or holding it — the companion signal for
// health.ProgressProbe.
func (a *Async) QueueDepth(i int) int { return len(a.groups[i].admitted) }

// Completed reports the requests group i finished since start
// (monotonic; the progress counter for group i's stuck-queue probe).
func (a *Async) Completed(i int) uint64 { return a.groups[i].completed.Load() }

// DepthGatherer exposes per-group queue depths as gauges
// (async.queue_depth.g<i>), derived at scrape time. Like all
// process-wide health series it belongs once at the top of a composed
// view, not inside group registries.
func (a *Async) DepthGatherer() metrics.Gatherer {
	return metrics.GathererFunc(func() []metrics.Metric {
		out := make([]metrics.Metric, len(a.groups))
		for i := range a.groups {
			out[i] = metrics.Metric{
				Kind: "gauge", Name: fmt.Sprintf("async.queue_depth.g%d", i),
				Value: float64(a.QueueDepth(i)),
			}
		}
		return out
	})
}

// EnableObservability registers the front-end's own series on reg:
// async.writes / async.reads counters and the async.inflight gauge.
// Call before submitting traffic. The queue wait reaches the back-end's
// stage histograms and request traces via TraceContext.QueueWait, when
// the store has observability enabled.
func (a *Async) EnableObservability(reg *metrics.Registry) {
	a.writes = reg.Counter("async.writes")
	a.reads = reg.Counter("async.reads")
	a.inflight = reg.Gauge("async.inflight")
}

// SetSpanCollector publishes the front-end's queue spans into col.
// Call before submitting traffic.
func (a *Async) SetSpanCollector(col *span.Collector) { a.col = col }

// call runs req on the caller: refuse it after Close, admit it to its
// group (waiting while depth callers are already there), count it, and
// serve it as the group's owner. The caller is blocked for the duration,
// so req.data is borrowed, not copied.
func (a *Async) call(req asyncReq) ([]byte, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		return nil, errAsyncClosed
	}
	req.submit = time.Now()
	g := a.groups[a.route(req.lba)]
	g.admitted <- struct{}{}
	defer func() { <-g.admitted }()
	// Counted once admitted, so async.inflight never reads a caller the
	// queue depths do not.
	if a.writes != nil {
		if req.write {
			a.writes.Inc()
		} else {
			a.reads.Inc()
		}
		a.inflight.Add(1)
	}
	return a.serve(g, req)
}

// serve runs req against g's store as the group's owner: inside the
// heartbeat, with the queue wait (admission plus the wait for the owner
// lock) handed to the back-end and, traced, an async.queue span.
func (a *Async) serve(g *group, req asyncReq) (data []byte, err error) {
	g.owner.Lock()
	defer g.owner.Unlock()
	var traceID string
	if req.ctx.Valid() {
		traceID = req.ctx.Trace.String()
	}
	g.hb.Begin(traceID)
	var tc *TraceContext
	if g.ts != nil {
		wait := time.Since(req.submit)
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
					QueueDepth: len(g.admitted), LBA: req.lba,
				})
			}
			g.tc.Context = req.ctx.Child(queueID)
		}
		g.tc.Op = "aread"
		if req.write {
			g.tc.Op = "awrite"
		}
		tc = &g.tc
	}
	switch {
	case req.write && tc != nil:
		err = g.ts.WriteTraced(req.lba, req.data, tc)
	case req.write:
		err = g.s.Write(req.lba, req.data)
	case g.ra != nil:
		data, err = g.ra.ReadAppend(req.dst, req.lba, tc)
	default:
		if tc != nil {
			data, err = g.ts.ReadTraced(req.lba, tc)
		} else {
			data, err = g.s.Read(req.lba)
		}
		if err == nil && req.dst != nil {
			data = append(req.dst, data...)
		}
	}
	if a.inflight != nil {
		a.inflight.Add(-1)
	}
	g.completed.Add(1)
	g.hb.End()
	return data, err
}

// Maintenance runs fn once per group, each invocation as that group's
// owner against its store (a single Server, or one cluster group), the
// groups in parallel. The call waits for every invocation and returns
// the first error. This is how GC, checkpointing and capacity reporting
// reach single-writer server state without racing the write path: the
// closure runs between requests, never beside them. It is bracketed by
// the group's heartbeat too — a hung GC or checkpoint is exactly the
// stall the watchdog exists to catch.
func (a *Async) Maintenance(fn func(s Store) error) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		return errAsyncClosed
	}
	errs := make([]error, len(a.groups))
	var wg sync.WaitGroup
	for i, g := range a.groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.owner.Lock()
			defer g.owner.Unlock()
			g.hb.Begin("")
			defer g.hb.End()
			errs[i] = fn(g.s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops accepting requests, waits out the ones in flight, flushes
// every underlying store and returns the first flush error.
func (a *Async) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	var first error
	for _, g := range a.groups {
		if err := g.s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
