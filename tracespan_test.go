package fidr_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fidr"
	"fidr/internal/core"
	"fidr/internal/metrics"
	"fidr/internal/trace/span"
)

// TestAsyncTraceTree drives traced writes through the full front-end
// stack — async admission, group-owned server, batch pipeline, WAL — and
// checks the resulting span tree: async.queue parents the core request,
// the batch trace links under the tipping request, and the WAL fsync
// appears as a batch child.
func TestAsyncTraceTree(t *testing.T) {
	cfg := fidr.DefaultConfig(fidr.FIDRFull)
	cfg.BatchChunks = 4
	wal, err := core.OpenWALFile(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = wal
	srv, err := fidr.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableObservability(nil)
	col := span.NewCollector(0, 0, 64)
	srv.SetSpanCollector(col, 0)

	a, err := fidr.NewAsync(srv, 8)
	if err != nil {
		t.Fatal(err)
	}
	a.EnableObservability(metrics.NewRegistry())
	a.SetSpanCollector(col)
	st := blocking(t, a)

	sc := span.Context{Trace: span.NewTraceID(), Parent: span.NewSpanID(), Sampled: true}
	for i := uint64(0); i < 4; i++ {
		if err := st.WriteTraced(i, fidr.MakeChunk(i, 0.5), &fidr.TraceContext{Context: sc}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	spans := col.Trace(sc.Trace)
	if len(spans) == 0 {
		t.Fatal("trace missing from collector")
	}
	byID := map[span.SpanID]span.Span{}
	count := map[string]int{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		count[sp.Name]++
	}
	if count["async.queue"] != 4 || count["core.awrite"] != 4 {
		t.Fatalf("span counts = %v, want 4 async.queue and 4 core.awrite", count)
	}
	for _, want := range []string{"core.batch", "hash", "dedup_lookup", "wal_fsync", "nic_buffer"} {
		if count[want] == 0 {
			t.Fatalf("no %q span in trace: %v", want, count)
		}
	}
	// Parentage: every core.awrite hangs under an async.queue span,
	// every async.queue under the client's context, and the batch under
	// one of the request roots.
	var reqRoots []span.SpanID
	for _, sp := range spans {
		switch sp.Name {
		case "core.awrite":
			p, ok := byID[sp.Parent]
			if !ok || p.Name != "async.queue" {
				t.Fatalf("core.awrite parent %s is not an async.queue span", sp.Parent)
			}
			reqRoots = append(reqRoots, sp.ID)
		case "async.queue":
			if sp.Parent != sc.Parent {
				t.Fatalf("async.queue parent %s != client span %s", sp.Parent, sc.Parent)
			}
		}
	}
	for _, sp := range spans {
		if sp.Name != "core.batch" {
			continue
		}
		ok := false
		for _, r := range reqRoots {
			if sp.Parent == r {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("core.batch parent %s is not one of the request roots", sp.Parent)
		}
	}
	// The WAL fsync hangs under the batch span.
	for _, sp := range spans {
		if sp.Name != "wal_fsync" {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok || p.Name != "core.batch" {
			t.Fatalf("wal_fsync parent %s is not the batch span", sp.Parent)
		}
	}

	// Rendered tree nests the pipeline under the queue spans.
	text := span.Render(spans)
	for _, want := range []string{"async.queue", "core.awrite", "core.batch", "wal_fsync"} {
		if !contains(text, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, text)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAsyncStoreRange: the AsyncStore adapter serves the proto.Store
// surface over the groups, preserving chunk order across them.
func TestAsyncStoreRange(t *testing.T) {
	cl, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fidr.NewAsync(cl, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fidr.NewAsyncStore(a, cl.Group(0).ChunkSize())
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunkSize() != cl.Group(0).ChunkSize() {
		t.Fatalf("chunk size %d", st.ChunkSize())
	}
	want := make([][]byte, 8)
	for i := range want {
		want[i] = fidr.MakeChunk(uint64(100+i), 0.5)
		if err := st.Write(uint64(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.ReadRange(0, len(want))
	if err != nil {
		t.Fatal(err)
	}
	cs := st.ChunkSize()
	for i := range want {
		if string(got[i*cs:(i+1)*cs]) != string(want[i]) {
			t.Fatalf("range chunk %d corrupted", i)
		}
	}
	if _, err := st.ReadRange(0, 0); err == nil {
		t.Fatal("zero-chunk range accepted")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorSharedByWorkersAndReaders is the collector's concurrency
// case (run it under -race): two callers, each serving its writes as the
// owner of one cluster group at a time, finish requests into one shared
// collector while an HTTP client reads all three views. Afterwards the
// store holds exactly what the callers finished.
func TestCollectorSharedByWorkersAndReaders(t *testing.T) {
	cfg := fidr.DefaultConfig(fidr.FIDRFull)
	cfg.BatchChunks = 8
	cl, err := fidr.NewCluster(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	view := cl.EnableObservability()
	col := span.NewCollector(4096, 4096, 1024)
	col.SetSlowGate(0.5, time.Nanosecond)
	for i := 0; i < cl.Groups(); i++ {
		cl.Group(i).SetSpanCollector(col, i)
	}
	a, err := fidr.NewAsync(cl, 16)
	if err != nil {
		t.Fatal(err)
	}
	a.SetSpanCollector(col)
	if a.Workers() != 2 {
		t.Fatalf("%d async groups, want 2", a.Workers())
	}
	st := blocking(t, a)
	srv := httptest.NewServer(metrics.Handler(view, nil, []metrics.Route{
		{Path: "/traces", Handler: metrics.Text(col.RenderRecent)},
		{Path: "/traces/slow", Handler: metrics.Text(col.RenderSlow)},
		{Path: "/traces/spans", Handler: col},
	}))
	defer srv.Close()

	const writes = 600
	wire := &fidr.TraceContext{Context: span.Context{Trace: span.NewTraceID(), Parent: span.NewSpanID(), Sampled: true}}
	writersDone := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		paths := []string{"/traces", "/traces/slow", "/traces/spans", "/traces/spans?id=" + wire.Trace.String()}
		for i := 0; ; i++ {
			resp, err := http.Get(srv.URL + paths[i%len(paths)])
			if err != nil {
				readerDone <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			select {
			case <-writersDone:
				if i >= len(paths) {
					readerDone <- nil
					return
				}
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < writes; i += 2 {
				tc := wire
				if i%10 != 0 {
					tc = nil
				}
				if err := st.WriteTraced(uint64(i), fidr.MakeChunk(uint64(i%50), 0.5), tc); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(writersDone)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	awrites := 0
	groups := make(map[int]bool)
	for _, q := range col.Recent() {
		if q.Op() == "awrite" {
			awrites++
			groups[q.Root.Group] = true
		}
	}
	if awrites != writes || len(groups) != 2 {
		t.Fatalf("recent view holds %d awrite requests from %d groups, want %d from 2", awrites, len(groups), writes)
	}
	var finished, slow float64
	for _, m := range view.Snapshot() {
		switch m.Name {
		case "core.request_total_ns":
			finished = float64(m.Hist.Count)
		case "core.slow_traces":
			slow = m.Value
		}
	}
	if got := len(col.Recent()); float64(got) != finished {
		t.Fatalf("recent view holds %d requests, servers finished %v", got, finished)
	}
	if got := len(col.Slow()); got == 0 || float64(got) != slow {
		t.Fatalf("slow view holds %d requests, core.slow_traces = %v", got, slow)
	}
	// The wire trace gathered its 60 requests (and their queue spans)
	// from both groups under one ID.
	count := map[string]int{}
	for _, sp := range col.Trace(wire.Trace) {
		count[sp.Name]++
	}
	if count["core.awrite"] != writes/10 || count["async.queue"] != writes/10 {
		t.Fatalf("wire trace spans = %v, want %d core.awrite and async.queue", count, writes/10)
	}
}
