package fidr_test

import (
	"strings"
	"testing"

	"fidr"
	"fidr/internal/metrics"
	"fidr/internal/trace/span"
)

// TestAsyncQueueWaitObserved checks the front-end's own metrics and the
// queue-wait propagation into the back-end's stage histograms and
// request traces.
func TestAsyncQueueWaitObserved(t *testing.T) {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 2)
	if err != nil {
		t.Fatal(err)
	}
	view := c.EnableObservability()
	col := span.NewCollector(512, 0, 0)
	for i := 0; i < c.Groups(); i++ {
		c.Group(i).SetSpanCollector(col, i)
	}
	a, err := fidr.NewAsync(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	areg := metrics.NewRegistry()
	a.EnableObservability(areg)

	const n = 200
	results := make([]<-chan fidr.AsyncResult, 0, n)
	for i := uint64(0); i < n; i++ {
		results = append(results, a.WriteAsync(i, fidr.MakeChunk(i%20, 0.5), nil))
	}
	for i := uint64(0); i < n/2; i++ {
		results = append(results, a.ReadAsync(i, nil))
	}
	for _, ch := range results[:n] {
		if r := <-ch; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for _, ch := range results[n:] {
		// Reads may race ahead of their writes; errors are fine, the
		// metrics are what is under test.
		<-ch
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Front-end counters.
	if got := areg.Counter("async.writes").Value(); got != n {
		t.Errorf("async.writes = %d, want %d", got, n)
	}
	if got := areg.Counter("async.reads").Value(); got != n/2 {
		t.Errorf("async.reads = %d, want %d", got, n/2)
	}
	if got := areg.Histogram("async.queue_wait.ns").Count(); got != n+n/2 {
		t.Errorf("async.queue_wait.ns count = %d, want %d", got, n+n/2)
	}
	if got := areg.Gauge("async.inflight").Value(); got != 0 {
		t.Errorf("async.inflight = %v after drain, want 0", got)
	}

	// Back-end: the queue wait crossed into the merged stage histograms
	// and the per-request traces carry the awrite/aread ops.
	var queueWait metrics.HistogramSnapshot
	for _, m := range view.Snapshot() {
		if m.Name == "stage.queue_wait.ns" {
			queueWait = m.Hist
		}
	}
	if queueWait.Count != n+n/2 {
		t.Errorf("stage.queue_wait.ns count = %d, want %d", queueWait.Count, n+n/2)
	}
	// Every queued request carries its wait as a queue_wait stage: none
	// came with a wire context, so no queue span stands in for it.
	var awrites, areads int
	for _, q := range col.Recent() {
		switch q.Op() {
		case "awrite":
			awrites++
		case "aread":
			areads++
		default:
			continue
		}
		if q.Stages[0].Name != "queue_wait" {
			t.Fatalf("%s first stage is %q, want queue_wait", q.Op(), q.Stages[0].Name)
		}
	}
	if awrites == 0 || areads == 0 {
		t.Errorf("traces: %d awrite, %d aread; queue ops not tagged", awrites, areads)
	}
	if out := col.RenderRecent(); !strings.Contains(out, "queue_wait=") {
		t.Errorf("rendered recent view missing queue_wait stages:\n%.300s", out)
	}
}
