package span

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestIDsUniqueAndNonZero(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id generated")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestParseTraceID(t *testing.T) {
	id := NewTraceID()
	back, err := ParseTraceID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("round trip %s -> %s", id, back)
	}
	if _, err := ParseTraceID("0xdeadbeef"); err != nil {
		t.Fatalf("0x prefix rejected: %v", err)
	}
	for _, bad := range []string{"", "zz", "00000000000000000", "0", " "} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Fatalf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestContextWireRoundTrip(t *testing.T) {
	c := Context{Trace: NewTraceID(), Parent: NewSpanID(), Sampled: true}
	var b [WireSize]byte
	c.EncodeWire(b[:])
	back, err := DecodeWire(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("wire round trip %+v -> %+v", c, back)
	}
	if _, err := DecodeWire(b[:WireSize-1]); err == nil {
		t.Fatal("truncated context accepted")
	}
}

func TestCollectorTreeAndEviction(t *testing.T) {
	col := NewCollector(0, 0, 2)
	mk := func(tid TraceID, id, parent SpanID, name string, at int) Span {
		return Span{Trace: tid, ID: id, Parent: parent, Name: name,
			Start: time.Unix(0, int64(at)), Dur: time.Duration(at)}
	}
	// One sampled trace assembled from two layers: the listener's loose
	// root span and the core request tree under it.
	t1 := TraceID(0xaaa)
	root, child, grand := NewSpanID(), NewSpanID(), NewSpanID()
	col.Add(mk(t1, root, 0, "proto.write", 1))
	col.Finish(&Request{
		Root:    mk(t1, child, root, "core.write", 2),
		Stages:  []Span{mk(t1, grand, child, "hash", 3)},
		Sampled: true,
	})

	spans := col.Trace(t1)
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	text := Render(spans)
	// Tree shape: grand-child indented two levels beyond root.
	if !strings.Contains(text, "proto.write") || !strings.Contains(text, "      hash") {
		t.Fatalf("render missing tree structure:\n%s", text)
	}

	// Two more sampled traces evict t1's tree (capacity 2). Its request
	// is still in the recent view, so the ID keeps resolving — to the
	// request alone, the listener's loose span went with the tree.
	col.Add(mk(TraceID(0xbbb), NewSpanID(), 0, "a", 4))
	col.Add(mk(TraceID(0xccc), NewSpanID(), 0, "b", 5))
	if got := col.Trace(t1); len(got) != 2 {
		t.Fatalf("evicted tree resolves to %d spans, want the 2 of its recent request", len(got))
	}
	if got := len(col.Index(0)); got != 2 {
		t.Fatalf("index = %d traces, want 2", got)
	}
	if col.Trace(TraceID(0xddd)) != nil {
		t.Fatal("unknown trace resolved")
	}
}

// finish hands col one unsampled request with a minted ID, slow when
// threshold > 0, and returns its trace ID.
func finish(col *Collector, op string, group int, threshold time.Duration) TraceID {
	id := NewTraceID()
	q := &Request{
		Root: Span{Trace: id, ID: NewSpanID(), Name: "core." + op, Start: time.Now(),
			Dur: 2 * time.Millisecond, LBA: 7, Group: group},
		Threshold: threshold,
	}
	q.Stages = []Span{{Trace: id, ID: NewSpanID(), Parent: q.Root.ID, Name: "compress", Dur: time.Millisecond}}
	if threshold > 0 {
		q.Queues = map[string]float64{"ssd.data.queue_depth": 3}
	}
	col.Finish(q)
	return id
}

// TestCollectorSlowOutlivesRecent: the three views retain one store.
// A slow-flagged request stays in the slow view after the recent view
// has wrapped past it, and its minted ID still resolves; a request no
// view retains is gone.
func TestCollectorSlowOutlivesRecent(t *testing.T) {
	col := NewCollector(4, 2, 0)
	slowID := finish(col, "write", 0, time.Millisecond)
	var fastIDs []TraceID
	for i := 0; i < 6; i++ {
		fastIDs = append(fastIDs, finish(col, "read", 0, 0))
	}

	recent := col.Recent()
	if len(recent) != 4 {
		t.Fatalf("recent view holds %d requests, want 4", len(recent))
	}
	for i, q := range recent {
		if q.Root.Trace == slowID {
			t.Fatal("slow request still in the recent view; eviction not exercised")
		}
		if want := fastIDs[len(fastIDs)-1-i]; q.Root.Trace != want {
			t.Fatalf("recent[%d] = %s, want %s (newest first)", i, q.Root.Trace, want)
		}
	}
	slow := col.Slow()
	if len(slow) != 1 || slow[0].Root.Trace != slowID {
		t.Fatalf("slow view = %d requests, want the one slow write", len(slow))
	}
	if spans := col.Trace(slowID); len(spans) != 2 || spans[0].Name != "core.write" || spans[1].Name != "compress" {
		t.Fatalf("slow-retained trace resolves to %v", spans)
	}
	if col.Trace(fastIDs[0]) != nil {
		t.Fatal("request evicted from every view still resolves")
	}
	if col.Trace(fastIDs[5]) == nil {
		t.Fatal("recent unsampled request does not resolve by its minted ID")
	}

	out := col.RenderSlow()
	for _, want := range []string{"slow request", "write", "compress=1ms", "1ms", "ssd.data.queue_depth=3", slowID.String(), "1 slow traces"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered slow view missing %q:\n%s", want, out)
		}
	}
	out = col.RenderRecent()
	for _, want := range []string{"recent request traces", "read", "compress=1ms", fastIDs[5].String(), "4 traces"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered recent view missing %q:\n%s", want, out)
		}
	}
}

func TestCollectorHTTP(t *testing.T) {
	col := NewCollector(0, 0, 8)
	id := NewTraceID()
	col.Add(Span{Trace: id, ID: NewSpanID(), Name: "proto.write", Start: time.Now(), Dur: time.Millisecond})
	unsampled := finish(col, "read", 0, 0)

	rec := httptest.NewRecorder()
	col.ServeHTTP(rec, httptest.NewRequest("GET", "/traces/spans?id="+id.String(), nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "proto.write") {
		t.Fatalf("lookup: code=%d body=%q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	col.ServeHTTP(rec, httptest.NewRequest("GET", "/traces/spans?id="+unsampled.String(), nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "core.read") {
		t.Fatalf("unsampled lookup: code=%d body=%q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	col.ServeHTTP(rec, httptest.NewRequest("GET", "/traces/spans?id=ffffffffffffffff", nil))
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "not found") {
		t.Fatalf("unknown id: code=%d body=%q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	col.ServeHTTP(rec, httptest.NewRequest("GET", "/traces/spans?id=nothex", nil))
	if rec.Code != 400 {
		t.Fatalf("bad id: code=%d", rec.Code)
	}

	// The index lists sampled traces only.
	rec = httptest.NewRecorder()
	col.ServeHTTP(rec, httptest.NewRequest("GET", "/traces/spans", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), id.String()) ||
		strings.Contains(rec.Body.String(), unsampled.String()) {
		t.Fatalf("index: code=%d body=%q", rec.Code, rec.Body.String())
	}
}
