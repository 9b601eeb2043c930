package fidr_test

import (
	"strings"
	"sync"
	"testing"

	"fidr"
	"fidr/internal/metrics"
	"fidr/internal/trace/span"
)

// TestAsyncQueueWaitObserved checks the front-end's own metrics and the
// queue-wait propagation into the back-end's stage histograms and
// request traces: stage.queue_wait.ns is the one queue-wait series.
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
	st := blocking(t, a)

	// Four callers each write their share and then read half of it back,
	// so the groups see concurrent writes and reads.
	const n, callers = 200, 4
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(w); i < n; i += callers {
				if err := st.Write(i, fidr.MakeChunk(i%20, 0.5)); err != nil {
					t.Error(err)
					return
				}
			}
			for i := uint64(w); i < n/2; i += callers {
				if _, err := st.Read(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
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
	// Every request carries its wait as a queue_wait stage: none
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
