package span

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"fidr/internal/metrics"
)

// Request is one finished request as the storage pipeline saw it: a
// root span ("core.<op>") plus one child span per pipeline stage.
// Every observed request produces one, sampled or not; an unsampled
// request carries a locally minted trace ID, so it resolves by ID for
// as long as a view retains it. A Request is immutable once handed to
// Collector.Finish.
type Request struct {
	Root   Span
	Stages []Span
	// Dropped counts stage spans beyond the builder's per-request cap
	// (bulk ops like gc and verify touch thousands of chunks).
	Dropped int
	// Sampled requests also join their trace's by-ID tree, next to the
	// spans other layers published for the same trace.
	Sampled bool
	// Threshold is the latency bar the request exceeded when the slow
	// gate flagged it (zero: not slow). Queues then snapshots the
	// server's queue-occupancy gauges at completion time — the diagnosis
	// half. A server publishes two: nic.queue_depth (chunks in NIC memory,
	// the filling buffer plus the held batch waiting for its commit) and
	// engine.queue_depth (sealed containers not yet on the data SSD). A
	// slow request behind a full NIC buffer or sealed containers is
	// batching backlog; one with both low is pipeline overhead. A
	// front-end queue's wait is the request's own queue_wait stage.
	Threshold time.Duration
	Queues    map[string]float64
}

// Op is the request's op label (the root span name without "core.").
func (q *Request) Op() string { return strings.TrimPrefix(q.Root.Name, "core.") }

// reqRing is a fixed-size ring of requests; nil slots are empty.
type reqRing struct {
	buf  []*Request
	next int
}

func (r *reqRing) push(q *Request) {
	r.buf[r.next] = q
	r.next = (r.next + 1) % len(r.buf)
}

// newestFirst returns the stored requests, newest first.
func (r *reqRing) newestFirst() []*Request {
	out := make([]*Request, 0, len(r.buf))
	for i := 1; i <= len(r.buf); i++ {
		q := r.buf[(r.next-i+len(r.buf))%len(r.buf)]
		if q == nil {
			break
		}
		out = append(out, q)
	}
	return out
}

// tree is one sampled trace's by-ID entry: spans other layers published
// on their own (proto root, async queue) plus the requests that ran
// under the trace. n counts spans across both against the per-trace cap.
type tree struct {
	loose []Span
	reqs  []*Request
	n     int
}

func (t *tree) spans() []Span {
	out := make([]Span, 0, t.n)
	out = append(out, t.loose...)
	for _, q := range t.reqs {
		out = append(append(out, q.Root), q.Stages...)
	}
	return out
}

// Collector is the one bounded store of traced requests. Finished
// requests arrive whole (Finish, one lock acquisition per request) and
// are retained by three classes, each with its own bound and all
// pointing at the same Request values:
//
//   - recent: the last N requests of any kind (/traces);
//   - slow: the last N requests the slow gate flagged, kept past their
//     eviction from the recent view (/traces/slow);
//   - sampled: the last N distinct sampled traces, each a tree of the
//     requests that ran under it plus the spans the proto listener and
//     async queue published for it (/traces/spans). Eviction is per
//     trace, so a trace's spans are kept or dropped together even though
//     they arrive from different layers at different times.
//
// One collector is shared by every group of a cluster and every layer
// of the daemon; it is safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	recent  reqRing
	slow    reqRing
	cap     int       // sampled traces retained
	order   []TraceID // arrival order of first span, oldest first
	byTrace map[TraceID]*tree

	slowQuantile float64
	slowMin      time.Duration
}

// maxSpansPerTrace bounds one sampled trace's tree (a traced batch
// frame fans out into hundreds of requests).
const maxSpansPerTrace = 512

// NewCollector builds a collector retaining the last recent requests,
// the last slow slow-flagged requests and the last sampled distinct
// sampled traces (a value <= 0 selects 256, 64 and 512, which is what a
// node is built with). The slow gate starts at the
// p99 of observed totals, never below 1ms; see SetSlowGate.
func NewCollector(recent, slow, sampled int) *Collector {
	if recent <= 0 {
		recent = 256
	}
	if slow <= 0 {
		slow = 64
	}
	if sampled <= 0 {
		sampled = 512
	}
	return &Collector{
		recent:       reqRing{buf: make([]*Request, recent)},
		slow:         reqRing{buf: make([]*Request, slow)},
		cap:          sampled,
		byTrace:      make(map[TraceID]*tree),
		slowQuantile: 0.99,
		slowMin:      time.Millisecond,
	}
}

// SetSlowGate tunes slow retention: requests above the given quantile
// of their server's total-latency distribution (0 < quantile < 1) and
// never faster than min are slow. Out-of-range values keep the
// defaults. Call before attaching the collector to servers, which read
// the gate once (SlowGate) and evaluate it against their own latency
// histogram.
func (c *Collector) SetSlowGate(quantile float64, min time.Duration) {
	if quantile > 0 && quantile < 1 {
		c.slowQuantile = quantile
	}
	if min > 0 {
		c.slowMin = min
	}
}

// SlowGate returns the slow-retention quantile and floor.
func (c *Collector) SlowGate() (quantile float64, min time.Duration) {
	return c.slowQuantile, c.slowMin
}

// treeFor returns id's by-ID entry, creating it (and evicting the
// oldest sampled trace when full). Caller holds c.mu.
func (c *Collector) treeFor(id TraceID) *tree {
	t := c.byTrace[id]
	if t == nil {
		if len(c.order) >= c.cap {
			delete(c.byTrace, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, id)
		t = &tree{}
		c.byTrace[id] = t
	}
	return t
}

// Finish records one finished request in every view that retains it.
func (c *Collector) Finish(q *Request) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.recent.push(q)
	if q.Threshold > 0 {
		c.slow.push(q)
	}
	if q.Sampled {
		if t, n := c.treeFor(q.Root.Trace), 1+len(q.Stages); t.n+n <= maxSpansPerTrace {
			t.reqs = append(t.reqs, q)
			t.n += n
		}
	}
	c.mu.Unlock()
}

// Add records one span a layer above the storage pipeline completed for
// a sampled trace (the listener's "proto.<op>" root, the async queue's
// "async.queue" link). Spans with a zero trace ID are dropped.
func (c *Collector) Add(sp Span) {
	if c == nil || sp.Trace == 0 {
		return
	}
	c.mu.Lock()
	if t := c.treeFor(sp.Trace); t.n < maxSpansPerTrace {
		t.loose = append(t.loose, sp)
		t.n++
	}
	c.mu.Unlock()
}

// Recent returns the recent view, newest first.
func (c *Collector) Recent() []*Request {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recent.newestFirst()
}

// Slow returns the slow-retained view, newest first.
func (c *Collector) Slow() []*Request {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slow.newestFirst()
}

// Trace returns a copy of every retained span of trace id (nil when
// unknown or evicted from every view). A sampled trace resolves from
// its tree; any other ID — an unsampled request's minted one, or a
// sampled trace whose tree was evicted — resolves from the requests the
// slow and recent views still hold.
func (c *Collector) Trace(id TraceID) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.byTrace[id]; t != nil {
		return t.spans()
	}
	var held tree
	seen := make(map[*Request]bool)
	for _, ring := range [...]*reqRing{&c.slow, &c.recent} {
		for _, q := range ring.buf {
			if q != nil && q.Root.Trace == id && !seen[q] {
				seen[q] = true
				held.reqs = append(held.reqs, q)
			}
		}
	}
	if held.reqs == nil {
		return nil
	}
	return held.spans()
}

// Summary is one line of the trace index: enough to pick a trace ID
// without fetching every tree.
type Summary struct {
	Trace TraceID       `json:"trace"`
	Root  string        `json:"root"`
	Total time.Duration `json:"total_ns"`
	Spans int           `json:"spans"`
	Start time.Time     `json:"start"`
}

// Index returns summaries of the retained sampled traces, newest first,
// capped at n (<= 0 means all).
func (c *Collector) Index(n int) []Summary {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || n > len(c.order) {
		n = len(c.order)
	}
	out := make([]Summary, 0, n)
	for i := len(c.order) - 1; i >= 0 && len(out) < n; i-- {
		id := c.order[i]
		spans := c.byTrace[id].spans()
		if len(spans) == 0 {
			continue
		}
		root := rootSpan(spans)
		out = append(out, Summary{
			Trace: id,
			Root:  root.Name,
			Total: root.Dur,
			Spans: len(spans),
			Start: root.Start,
		})
	}
	return out
}

// rootSpan picks the best root: the span whose parent is absent from
// the trace, preferring the earliest start among candidates.
func rootSpan(spans []Span) Span {
	have := make(map[SpanID]bool, len(spans))
	for _, sp := range spans {
		have[sp.ID] = true
	}
	best := spans[0]
	found := false
	for _, sp := range spans {
		if sp.Parent != 0 && have[sp.Parent] {
			continue
		}
		if !found || sp.Start.Before(best.Start) {
			best = sp
			found = true
		}
	}
	return best
}

// RenderRecent renders the recent view (the /traces body).
func (c *Collector) RenderRecent() string {
	reqs := c.Recent()
	tab := metrics.NewTable("recent request traces (newest first)",
		"op", "lba", "total", "stages", "group", "trace")
	for _, q := range reqs {
		tab.Row(q.Op(), q.Root.LBA, q.Root.Dur.String(), q.stageList(), q.Root.Group, q.Root.Trace.String())
	}
	tab.Note("%d traces", len(reqs))
	return tab.String()
}

// RenderSlow renders the slow-retained view (the /traces/slow body).
func (c *Collector) RenderSlow() string {
	reqs := c.Slow()
	tab := metrics.NewTable("slow request traces retained (newest first)",
		"op", "lba", "total", "threshold", "stages", "queues", "group", "trace")
	for _, q := range reqs {
		names := make([]string, 0, len(q.Queues))
		for name := range q.Queues {
			names = append(names, name)
		}
		sort.Strings(names)
		var qb strings.Builder
		for i, name := range names {
			if i > 0 {
				qb.WriteByte(' ')
			}
			fmt.Fprintf(&qb, "%s=%g", name, q.Queues[name])
		}
		tab.Row(q.Op(), q.Root.LBA, q.Root.Dur.String(), q.Threshold.String(),
			q.stageList(), qb.String(), q.Root.Group, q.Root.Trace.String())
	}
	tab.Note("%d slow traces", len(reqs))
	return tab.String()
}

// stageList renders the stage children as "name=dur ..." in the order
// the pipeline ran them, with the dropped-span count when capped.
func (q *Request) stageList() string {
	var sb strings.Builder
	for i, sp := range q.Stages {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", sp.Name, sp.Dur.Round(time.Nanosecond))
	}
	if q.Dropped > 0 {
		fmt.Fprintf(&sb, " (+%d spans)", q.Dropped)
	}
	return sb.String()
}

// Render formats a span tree as indented text, children ordered by
// start time. Orphaned spans (parent evicted or still in flight when
// snapshotted) surface as extra roots rather than disappearing.
func Render(spans []Span) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	have := make(map[SpanID]bool, len(spans))
	for _, sp := range spans {
		have[sp.ID] = true
	}
	children := make(map[SpanID][]Span)
	var roots []Span
	for _, sp := range spans {
		if sp.Parent != 0 && have[sp.Parent] && sp.Parent != sp.ID {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(s []Span) {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	}
	byStart(roots)
	for _, cs := range children {
		byStart(cs)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s · %d spans\n", spans[0].Trace, len(spans))
	seen := make(map[SpanID]bool)
	var walk func(sp Span, depth int)
	walk = func(sp Span, depth int) {
		if sp.ID != 0 {
			if seen[sp.ID] {
				return
			}
			seen[sp.ID] = true
		}
		sb.WriteString(strings.Repeat("  ", depth+1))
		fmt.Fprintf(&sb, "%-24s %12s", sp.Name, sp.Dur.Round(time.Nanosecond))
		if sp.Bytes > 0 {
			fmt.Fprintf(&sb, "  bytes=%d", sp.Bytes)
		}
		if sp.QueueDepth > 0 {
			fmt.Fprintf(&sb, "  qdepth=%d", sp.QueueDepth)
		}
		if sp.LBA != 0 {
			fmt.Fprintf(&sb, "  lba=%d", sp.LBA)
		}
		if sp.Group > 0 {
			fmt.Fprintf(&sb, "  group=%d", sp.Group)
		}
		sb.WriteByte('\n')
		for _, ch := range children[sp.ID] {
			walk(ch, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return sb.String()
}

// ServeHTTP serves the by-ID view: /traces/spans lists the retained
// sampled traces; ?id=<hex> resolves one span tree (404 with a useful
// body for unknown IDs); ?format=json switches either view to JSON.
func (c *Collector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	asJSON := q.Get("format") == "json"
	idStr := q.Get("id")
	if idStr == "" {
		sums := c.Index(0)
		if asJSON {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(sums)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "retained traces: %d (newest first); fetch one with ?id=<trace>\n", len(sums))
		for _, s := range sums {
			fmt.Fprintf(w, "%s  %-20s %12s  %d spans\n", s.Trace, s.Root, s.Total.Round(time.Nanosecond), s.Spans)
		}
		return
	}
	id, err := ParseTraceID(idStr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spans := c.Trace(id)
	if spans == nil {
		http.Error(w, fmt.Sprintf("trace %s not found (never traced here, or evicted from the recent, slow and %d-trace sampled views)", id, c.cap), http.StatusNotFound)
		return
	}
	if asJSON {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(spans)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, Render(spans))
}
