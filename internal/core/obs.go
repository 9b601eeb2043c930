package core

import (
	"strings"
	"time"

	"fidr/internal/metrics"
	"fidr/internal/trace/span"
)

// Live observability (in contrast to the after-the-fact experiment
// harness): when enabled, every request is traced through the pipeline
// stages the paper argues about — NIC buffering, hashing, dedup lookup,
// compression, table-cache probes, SSD IO, decompression — with one
// wall-clock span per stage recorded into per-stage histograms in a
// metrics.Registry, and, when a span.Collector is attached, the whole
// request kept as one span tree (a "core.<op>" root plus one child per
// stage) in the collector's recent, slow and by-ID views. cmd/fidrd
// exposes both over HTTP (-metrics-addr).

// Stage identifies one pipeline hop of the write/read paths.
type Stage int

const (
	// StageNICBuffer is write buffering (in-NIC for FIDR, host request
	// buffer for the baseline) and the read-path buffer probe.
	StageNICBuffer Stage = iota
	// StageHash is chunk fingerprinting (NIC hash cores / FPGA array).
	StageHash
	// StageDedupLookup is uniqueness determination: predictor guesses
	// and Hash-PBN validation on the write path.
	StageDedupLookup
	// StageCompress is compression plus container packing.
	StageCompress
	// StageSSDIO is data-SSD container writes and compressed-chunk reads.
	StageSSDIO
	// StageDecompress is read-path decompression.
	StageDecompress
	// StageLBAResolve is read-path LBA-to-PBA resolution.
	StageLBAResolve
	// StageQueueWait is time spent queued in a front-end (the async
	// front-end's admission and group owner lock) before a server accepted the
	// request. Front-ends inject it via TraceContext.
	StageQueueWait
	// StageWALFsync is the group-commit fsync of staged WAL records
	// after the containers they reference are durable on the data SSD.
	StageWALFsync

	numStages
)

// String returns the stage's metric-name slug.
func (st Stage) String() string {
	switch st {
	case StageNICBuffer:
		return "nic_buffer"
	case StageHash:
		return "hash"
	case StageDedupLookup:
		return "dedup_lookup"
	case StageCompress:
		return "compress"
	case StageSSDIO:
		return "ssd_io"
	case StageDecompress:
		return "decompress"
	case StageLBAResolve:
		return "lba_resolve"
	case StageQueueWait:
		return "queue_wait"
	case StageWALFsync:
		return "wal_fsync"
	default:
		return "unknown"
	}
}

// Observer is the gated part of observability, the part that costs
// something per request: clock reads around every stage and a span tree.
// A nil *Observer disables it (the ReqTrace methods are nil-safe).
// Counters are not here: their owners count unconditionally (see counters).
type Observer struct {
	reg *metrics.Registry

	stage [numStages]*metrics.Histogram

	// Op-class request-total histograms: the SLO plane's latency inputs.
	reqWrite, reqRead *metrics.Histogram

	// Trace sink. col is nil until SetSpanCollector (stage histograms
	// are still fed, no request trees are built); group labels every
	// span with the owning cluster shard.
	col   *span.Collector
	group int

	// Slow-trace retention gate: every finished request's total feeds
	// totals; a request at or above slowBar is flagged slow and retained
	// with a queue snapshot. The bar starts at the collector's floor and,
	// once slowWarmup requests have been seen, follows the collector's
	// quantile of totals (never below the floor).
	totals       *metrics.Histogram
	slowCount    *metrics.Counter
	threshold    *metrics.Gauge
	slowQuantile float64
	slowMin      time.Duration
	slowBar      time.Duration
}

const (
	// slowWarmup is how many requests the gate observes before the
	// quantile replaces the floor as the slow bar.
	slowWarmup = 100
	// slowRefresh is how often (in requests) the bar is re-read from the
	// histogram. The quantile walk costs about as much as tracing the
	// rest of the request, and the tail of thousands of requests moves
	// slowly.
	slowRefresh = 32
)

func newObserver(reg *metrics.Registry) *Observer {
	o := &Observer{
		reg:       reg,
		reqWrite:  reg.Histogram("req.write.ns"),
		reqRead:   reg.Histogram("req.read.ns"),
		totals:    reg.Histogram("core.request_total_ns"),
		slowCount: reg.Counter("core.slow_traces"),
		threshold: reg.Gauge("core.slow_threshold_ns"),
	}
	for st := Stage(0); st < numStages; st++ {
		o.stage[st] = reg.Histogram("stage." + st.String() + ".ns")
	}
	return o
}

// begin opens a request trace, or returns nil when observability is off;
// every ReqTrace method is nil-safe so call sites stay unconditional.
// The request gets a locally minted, unsampled trace ID; adopt replaces
// both when a context carries a trace.
func (o *Observer) begin(op string, lba uint64) *ReqTrace {
	if o == nil {
		return nil
	}
	tr := &ReqTrace{obs: o, op: op}
	tr.req.Root = span.Span{
		Trace: span.NewTraceID(), ID: span.NewSpanID(),
		Start: time.Now(), LBA: lba, Group: o.group,
	}
	tr.req.Stages = tr.inline[:0]
	return tr
}

// now reads the clock for a span that outlives the function that opens it,
// or returns the zero time when observability is off (since is its pair).
func (o *Observer) now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

func (o *Observer) since(from time.Time) time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(from)
}

// beginLinked opens a trace for deferred work (a batch flush) under the
// trace of the request that triggered it, so one wire trace covers the
// hash/compress/WAL/SSD spans its tipping write caused. A nil or
// unsampled parent leaves begin's own identity and sampling in place.
func (o *Observer) beginLinked(op string, lba uint64, parent *ReqTrace) *ReqTrace {
	tr := o.begin(op, lba)
	if tr != nil && parent != nil && parent.req.Sampled {
		tr.req.Root.Trace = parent.req.Root.Trace
		tr.req.Root.Parent = parent.req.Root.ID
		tr.req.Sampled = true
	}
	return tr
}

// ReqTrace builds one request's span tree: the root span and, while a
// collector is attached, one child span per stage. The finished
// span.Request inside it is what the collector retains.
type ReqTrace struct {
	obs *Observer
	op  string
	req span.Request
	// inline backs req.Stages for the common request (a handful of
	// stages), so a request costs one allocation.
	inline [2]span.Span
}

// heldID returns the trace ID the collector holds this request's tree
// under once it is done, or "" when no collector is attached.
func (tr *ReqTrace) heldID() string {
	if tr == nil || tr.obs.col == nil {
		return ""
	}
	return tr.req.Root.Trace.String()
}

// start marks the beginning of a stage.
func (tr *ReqTrace) start() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// since measures elapsed stage time without recording it (for spans
// accumulated across loop iterations).
func (tr *ReqTrace) since(from time.Time) time.Duration {
	if tr == nil {
		return 0
	}
	return time.Since(from)
}

// span closes a stage opened with start, recording it into the trace and
// the stage histogram.
func (tr *ReqTrace) span(st Stage, from time.Time) {
	if tr == nil {
		return
	}
	tr.record(st, from, time.Since(from), 0)
}

// at records a stage measured earlier, possibly before this trace began
// (a generation's wait for its hashes is reported by the batch trace of
// its commit).
func (tr *ReqTrace) at(st Stage, start time.Time, d time.Duration) {
	if tr == nil {
		return
	}
	tr.record(st, start, d, 0)
}

// maxTraceSpans bounds one request's stage list. Bulk operations (gc,
// verify, snapshot reads over large volumes) emit a span per chunk; the
// histograms absorb them all, the request keeps the first cap and counts
// the rest, so collector memory stays bounded.
const maxTraceSpans = 64

// add records an already-measured stage duration.
func (tr *ReqTrace) add(st Stage, d time.Duration) {
	tr.addBytes(st, d, 0)
}

// addBytes is add with a payload-byte annotation on the span.
func (tr *ReqTrace) addBytes(st Stage, d time.Duration, bytes uint64) {
	if tr == nil {
		return
	}
	tr.record(st, time.Time{}, d, bytes)
}

// record feeds the stage histogram and appends the stage's child span;
// a zero start means the stage ended just now.
func (tr *ReqTrace) record(st Stage, start time.Time, d time.Duration, bytes uint64) {
	tr.obs.stage[st].Observe(float64(d.Nanoseconds()))
	if tr.obs.col == nil {
		return
	}
	if len(tr.req.Stages) == maxTraceSpans {
		tr.req.Dropped++
		return
	}
	if start.IsZero() {
		start = time.Now().Add(-d)
	}
	root := &tr.req.Root
	tr.req.Stages = append(tr.req.Stages, span.Span{
		Trace: root.Trace, ID: span.NewSpanID(), Parent: root.ID,
		Name: st.String(), Start: start, Dur: d, Bytes: bytes, Group: root.Group,
	})
}

// adopt merges a front-end trace context into this trace: the op label
// is overridden when the front-end set one, the trace's start moves back
// to the front-end submission time so the total covers the whole request
// lifetime, and a wire trace identity replaces the minted one (the
// caller decided whether this request is traced and who the parent span
// is). A measured queue wait feeds its stage histogram; it becomes a
// queue_wait child only without a wire identity, because with one the
// queue published its own "async.queue" span as this request's parent.
func (tr *ReqTrace) adopt(tc *TraceContext) {
	if tr == nil || tc == nil {
		return
	}
	if tc.Op != "" {
		tr.op = tc.Op
	}
	root := &tr.req.Root
	if !tc.Start.IsZero() {
		root.Start = tc.Start
	}
	if tc.Trace != 0 {
		root.Trace = tc.Trace
		root.Parent = tc.Parent
		tr.req.Sampled = tc.Sampled
	}
	if tc.QueueWait > 0 {
		if tc.Trace != 0 {
			tr.obs.stage[StageQueueWait].Observe(float64(tc.QueueWait.Nanoseconds()))
		} else {
			tr.record(StageQueueWait, root.Start, tc.QueueWait, 0)
		}
	}
}

// TraceContext is the one trace context every layer takes; see
// span.TraceContext.
type TraceContext = span.TraceContext

// done completes the trace: the total feeds the request-class and
// slow-gate histograms, and the finished tree goes to the collector in
// one call, flagged slow (with a queue-gauge snapshot) when it crossed
// the gate.
func (tr *ReqTrace) done() {
	if tr == nil {
		return
	}
	o, root := tr.obs, &tr.req.Root
	root.Dur = time.Since(root.Start)
	ns := float64(root.Dur.Nanoseconds())
	o.totals.Observe(ns)
	if h := o.reqClass(tr.op); h != nil {
		h.Observe(ns)
	}
	if o.col == nil {
		return
	}
	root.Name = "core." + tr.op
	if n := o.totals.Count(); n >= slowWarmup && n%slowRefresh == 0 {
		o.setSlowBar(time.Duration(o.totals.Quantile(o.slowQuantile)))
	}
	if root.Dur >= o.slowBar {
		tr.req.Threshold = o.slowBar
		tr.req.Queues = o.queueSnapshot()
		o.slowCount.Inc()
	}
	o.col.Finish(&tr.req)
}

// setSlowBar moves the slow bar to th, floored at the gate's minimum.
func (o *Observer) setSlowBar(th time.Duration) {
	if th < o.slowMin {
		th = o.slowMin
	}
	o.slowBar = th
	o.threshold.Set(float64(th.Nanoseconds()))
}

// queueSnapshot captures every registry gauge whose name contains
// "queue" (nic.queue_depth and engine.queue_depth) at this instant.
func (o *Observer) queueSnapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range o.reg.Snapshot() {
		if m.Kind == "gauge" && strings.Contains(m.Name, "queue") {
			out[m.Name] = m.Value
		}
	}
	return out
}

// reqClass maps an op label to its request-class histogram (nil for
// internal ops like batch/flush/gc, which are not client requests).
func (o *Observer) reqClass(op string) *metrics.Histogram {
	switch op {
	case "write", "awrite":
		return o.reqWrite
	case "read", "aread", "snapshot_read":
		return o.reqRead
	}
	return nil
}

// EnableObservability attaches a live metrics registry to the server.
// The server's and every substrate's own counters are published by name
// (core.*, capacity.*, tablecache.*, nic.*, engine.*, ssd.<name>.*,
// hostmodel.*, pcie.*, wal.*) and include everything since construction
// (recovery replay, scrub). What starts here is the timing side: stage
// and request histograms, device access times and the slow-gate series.
// Request trees are kept only once SetSpanCollector attaches a
// collector. Call once, from the goroutine that owns the server;
// registry reads are concurrent-safe.
func (s *Server) EnableObservability(reg *metrics.Registry) *metrics.Registry {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s.obs = newObserver(reg)
	s.ctr.attach(reg)
	s.cache.Instrument(reg)
	s.dataSSD.Instrument(reg)
	s.tableSSD.Instrument(reg)
	if s.fnic != nil {
		s.fnic.Instrument(reg)
	}
	if s.pnic != nil {
		s.pnic.Instrument(reg)
	}
	s.comp.Instrument(reg)
	s.ledger.Instrument(reg)
	s.topo.Instrument(reg)
	if s.wal != nil {
		s.wal.Instrument(reg)
	}
	s.syncCapacityGauges()
	return reg
}

// SetSpanCollector attaches the shared trace store: every finished
// request hands its span tree there, and the collector's slow gate
// decides which ones this server flags slow. group labels the spans
// with this server's cluster shard index. Call after
// EnableObservability and before serving traffic; no-op when
// observability is disabled.
func (s *Server) SetSpanCollector(col *span.Collector, group int) {
	if s.obs == nil {
		return
	}
	s.obs.col = col
	s.obs.group = group
	s.obs.slowQuantile, s.obs.slowMin = col.SlowGate()
	s.obs.setSlowBar(0)
}

// MetricsRegistry returns the live registry, or nil when observability
// is disabled.
func (s *Server) MetricsRegistry() *metrics.Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg
}
