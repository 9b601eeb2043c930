package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/metrics"
	"fidr/internal/trace/span"
)

// opReq returns the newest request in reqs carrying the op, or nil.
func opReq(reqs []*span.Request, op string) *span.Request {
	for _, q := range reqs {
		if q.Op() == op {
			return q
		}
	}
	return nil
}

// stageSamples sums the sample counts of every stage histogram.
func stageSamples(reg *metrics.Registry) uint64 {
	var n uint64
	for st := Stage(0); st < numStages; st++ {
		n += reg.Histogram("stage." + st.String() + ".ns").Count()
	}
	return n
}

func TestMaintenanceOpsTraced(t *testing.T) {
	s := newServer(t, FIDRFull)
	// Recent view big enough that the later overwrites don't evict the
	// maintenance-op traces.
	reg := s.EnableObservability(nil)
	col := span.NewCollector(4096, 0, 0)
	s.SetSpanCollector(col, 0)
	sh := blockcomp.NewShaper(0.5)
	const n = 1100
	for i := 0; i < n; i++ {
		if err := s.Write(uint64(i), sh.Make(uint64(i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadSnapshot(id, 0); err != nil {
		t.Fatal(err)
	}
	beforeVerify := stageSamples(reg)
	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	verifySpans := int(stageSamples(reg) - beforeVerify)
	if !rep.OK() {
		t.Fatalf("verify: %v", rep.Problems)
	}
	// Overwrite everything with fresh content so compaction has garbage,
	// then release the snapshot's hold on the old chunks.
	for i := 0; i < n; i++ {
		if err := s.Write(uint64(i), sh.Make(uint64(1000+i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSnapshot(id); err != nil {
		t.Fatal(err)
	}
	res, err := s.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContainersCompacted == 0 {
		t.Fatal("compaction found nothing; test setup broken")
	}

	reqs := col.Recent()
	for _, op := range []string{"snapshot", "snapshot_read", "verify", "gc"} {
		if opReq(reqs, op) == nil {
			t.Errorf("no %q trace in the recent view", op)
		}
	}
	// Bulk ops keep a bounded span list; the histograms get everything.
	for _, q := range reqs {
		if len(q.Stages) > maxTraceSpans {
			t.Errorf("%s trace has %d spans; cap broken", q.Op(), len(q.Stages))
		}
	}
	// The verify pass touched every live chunk several stages each; the
	// trace kept the first cap of those spans and counted the rest
	// exactly, and the rendered row says so.
	verify := opReq(reqs, "verify")
	if verifySpans < 3*n {
		t.Fatalf("verify emitted %d stage spans over %d chunks; test setup broken", verifySpans, n)
	}
	if len(verify.Stages) != maxTraceSpans || verify.Dropped != verifySpans-maxTraceSpans {
		t.Errorf("verify trace: %d spans kept, %d dropped; want %d kept, %d dropped",
			len(verify.Stages), verify.Dropped, maxTraceSpans, verifySpans-maxTraceSpans)
	}
	if want := fmt.Sprintf("(+%d spans)", verify.Dropped); !strings.Contains(col.RenderRecent(), want) {
		t.Errorf("rendered recent view missing %q", want)
	}
	// The verify pass rehashes every live chunk, so the hash stage saw
	// at least n more samples than the writes alone.
	if got := reg.Histogram("stage.hash.ns").Count(); got < 2*n {
		t.Errorf("stage.hash.ns count = %d, want >= %d (writes + verify rehash)", got, 2*n)
	}
}

func TestTraceContextAdopt(t *testing.T) {
	s := newServer(t, FIDRFull)
	reg := s.EnableObservability(nil)
	col := span.NewCollector(0, 0, 0)
	s.SetSpanCollector(col, 0)
	sh := blockcomp.NewShaper(0.5)
	wait := 5 * time.Millisecond

	// A front-end context without a wire identity: op label, start and
	// queue wait join the request; the wait becomes a queue_wait child.
	tc := &TraceContext{Op: "awrite", Start: time.Now().Add(-wait), QueueWait: wait}
	if err := s.WriteTraced(7, sh.Make(1, 4096), tc); err != nil {
		t.Fatal(err)
	}
	q := col.Recent()[0]
	if q.Op() != "awrite" {
		t.Fatalf("op = %q, want awrite", q.Op())
	}
	if q.Root.Dur < wait {
		t.Fatalf("total %v does not include the %v queue wait", q.Root.Dur, wait)
	}
	if q.Sampled || q.Root.Trace == 0 {
		t.Fatalf("context without a wire identity: sampled=%v trace=%s", q.Sampled, q.Root.Trace)
	}
	if sp := q.Stages[0]; sp.Name != "queue_wait" || sp.Dur != wait || !sp.Start.Equal(tc.Start) {
		t.Fatalf("first stage = %+v, want the adopted queue_wait", sp)
	}

	// With a wire identity the request joins that trace under the given
	// parent; the queue wait still feeds its histogram but is no child
	// (the queue published its own span as the parent).
	tc = &TraceContext{
		Context: span.Context{Trace: span.NewTraceID(), Parent: span.NewSpanID(), Sampled: true},
		Op:      "awrite", Start: time.Now().Add(-wait), QueueWait: wait,
	}
	if err := s.WriteTraced(8, sh.Make(2, 4096), tc); err != nil {
		t.Fatal(err)
	}
	q = col.Recent()[0]
	if !q.Sampled || q.Root.Trace != tc.Trace || q.Root.Parent != tc.Parent {
		t.Fatalf("wire identity not adopted: %+v", q.Root)
	}
	for _, sp := range q.Stages {
		if sp.Name == "queue_wait" {
			t.Fatal("queue_wait child duplicated under a wire-traced request")
		}
	}
	if spans := col.Trace(tc.Trace); len(spans) != 1+len(q.Stages) {
		t.Fatalf("wire trace resolves to %d spans, want %d", len(spans), 1+len(q.Stages))
	}
	if got := reg.Histogram("stage.queue_wait.ns").Count(); got != 2 {
		t.Fatalf("stage.queue_wait.ns count = %d, want 2", got)
	}
}
