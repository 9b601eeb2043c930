package fidr_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fidr"
	"fidr/internal/metrics"
	"fidr/internal/metrics/health"
	"fidr/internal/trace/span"
)

var raceEnabled bool // set by race_test.go under -race

// TestAsyncBlockingAfterAsyncKeepsOrder: a caller's blocking call never
// overtakes its own earlier submission it did not wait for, whether it
// finds the group idle (and serves itself) or not.
func TestAsyncBlockingAfterAsyncKeepsOrder(t *testing.T) {
	for _, groups := range []int{1, 4} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			var st fidr.Store
			var err error
			if groups == 1 {
				st, err = fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
			} else {
				st, err = fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), groups)
			}
			if err != nil {
				t.Fatal(err)
			}
			a, err := fidr.NewAsync(st, 8)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			as := blocking(t, a)
			for i := uint64(0); i < 1000; i++ {
				lba := i % 37
				v2 := fidr.MakeChunk(1000+i, 0.5)
				a.WriteAsync(lba, v2, nil) // not awaited
				got, err := as.Read(lba)
				if err != nil {
					t.Fatalf("iteration %d: %v", i, err)
				}
				if !bytes.Equal(got, v2) {
					t.Fatalf("iteration %d: blocking read overtook the caller's own queued write", i)
				}
			}
		})
	}
}

// probeStore runs a hook inside every traced write, on whichever
// goroutine serves it.
type probeStore struct {
	*fidr.Server
	inWrite func()
}

func (p *probeStore) WriteTraced(lba uint64, data []byte, tc *fidr.TraceContext) error {
	p.inWrite()
	return p.Server.WriteTraced(lba, data, tc)
}

// TestAsyncInlineObserved: a blocking call on an idle group runs on the
// caller's goroutine and is observed exactly as a queued one: inside the
// group heartbeat, one async.queue_wait.ns observation, the counters,
// and, traced, one async.queue span under the caller's span.
func TestAsyncInlineObserved(t *testing.T) {
	srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	var hb *health.Heartbeat
	var busy []int
	var inline []bool
	ps := &probeStore{Server: srv, inWrite: func() {
		busy = append(busy, hb.Busy())
		stack := make([]byte, 16<<10)
		stack = stack[:runtime.Stack(stack, false)]
		// Only the test's own goroutine has the test runner at its root.
		inline = append(inline, strings.Contains(string(stack), "testing.tRunner"))
	}}
	a, err := fidr.NewAsync(ps, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	hb = a.WorkerHeartbeat(0)
	reg := metrics.NewRegistry()
	a.EnableObservability(reg)
	col := span.NewCollector(0, 0, 16)
	a.SetSpanCollector(col)
	st, err := fidr.NewAsyncStore(a, fidr.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}

	if err := st.Write(1, fidr.MakeChunk(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	sc := span.Context{Trace: span.NewTraceID(), Parent: span.NewSpanID(), Sampled: true}
	if err := st.WriteTraced(2, fidr.MakeChunk(2, 0.5), &fidr.TraceContext{Context: sc}); err != nil {
		t.Fatal(err)
	}

	if len(inline) != 2 || !inline[0] || !inline[1] {
		t.Fatalf("blocking calls on an idle group served on the caller's goroutine: %v, want [true true]", inline)
	}
	if busy[0] != 1 || busy[1] != 1 || hb.Busy() != 0 {
		t.Errorf("heartbeat busy %v during the calls and %d after, want [1 1] and 0", busy, hb.Busy())
	}
	if got := reg.Histogram("async.queue_wait.ns").Count(); got != 2 {
		t.Errorf("async.queue_wait.ns count = %d, want 2", got)
	}
	if w, in, done := reg.Counter("async.writes").Value(), reg.Gauge("async.inflight").Value(), a.Completed(); w != 2 || in != 0 || done != 2 {
		t.Errorf("async.writes %d, async.inflight %v, completed %d; want 2, 0, 2", w, in, done)
	}
	var queue []span.Span
	for _, sp := range col.Trace(sc.Trace) {
		if sp.Name == "async.queue" {
			queue = append(queue, sp)
		}
	}
	if len(queue) != 1 || queue[0].Parent != sc.Parent || queue[0].LBA != 2 {
		t.Fatalf("traced inline call left async.queue spans %+v, want one under %s", queue, sc.Parent)
	}
}

// soleOwner counts how many goroutines are inside the store at once. The
// plain counter makes any overlap a data race as well.
type soleOwner struct {
	inner    fidr.Store
	inside   atomic.Int32
	overlaps atomic.Int32
	visits   int
}

func (s *soleOwner) enter() {
	if s.inside.Add(1) != 1 {
		s.overlaps.Add(1)
	}
	s.visits++
}

func (s *soleOwner) exit() { s.inside.Add(-1) }

func (s *soleOwner) Write(lba uint64, data []byte) error {
	s.enter()
	defer s.exit()
	return s.inner.Write(lba, data)
}

func (s *soleOwner) Read(lba uint64) ([]byte, error) {
	s.enter()
	defer s.exit()
	return s.inner.Read(lba)
}

func (s *soleOwner) Flush() error {
	s.enter()
	defer s.exit()
	return s.inner.Flush()
}

// TestAsyncMaintenanceExcludesBlockingCalls: blocking callers serve
// themselves on an idle group, yet a Maintenance closure still has the
// store to itself, and so does every one of them.
func TestAsyncMaintenanceExcludesBlockingCalls(t *testing.T) {
	srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	so := &soleOwner{inner: srv}
	a, err := fidr.NewAsync(so, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := blocking(t, a)
	const writers, each, passes = 4, 300, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chunk := fidr.MakeChunk(uint64(w), 0.5)
			for i := 0; i < each; i++ {
				if err := st.Write(uint64(w*each+i), chunk); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for p := 0; p < passes; p++ {
		err := a.Maintenance(func(s fidr.Store) error {
			so := s.(*soleOwner)
			so.enter()
			runtime.Gosched() // give an intruder its chance
			so.exit()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n := so.overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping entries into a single-owner store", n)
	}
	if want := writers*each + passes + 1; so.visits != want {
		t.Fatalf("store entered %d times, want %d", so.visits, want)
	}
}

// TestAsyncCallNoAllocs: in steady state a blocking write through
// AsyncStore allocates nothing beyond what the server itself does for
// the same writes.
func TestAsyncCallNoAllocs(t *testing.T) {
	cfg := fidr.DefaultConfig(fidr.FIDRFull)
	cfg.HashLanes, cfg.CompressLanes = 1, 1
	chunks := make([][]byte, cfg.BatchChunks)
	for i := range chunks {
		chunks[i] = fidr.MakeChunk(uint64(i)+1, 0.5)
	}
	measure := func(write func(lba uint64, data []byte) error) float64 {
		batch := func() {
			for i, c := range chunks {
				if err := write(uint64(i), c); err != nil {
					t.Fatal(err)
				}
			}
		}
		batch() // unique: admits the content
		batch() // duplicate: first remap of every LBA
		return testing.AllocsPerRun(10, batch)
	}
	direct, err := fidr.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fronted, err := fidr.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fidr.NewAsync(fronted, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	st, err := fidr.NewAsyncStore(a, cfg.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	own, through := measure(direct.Write), measure(st.Write)
	if raceEnabled {
		t.Skipf("%v / %v allocs under the race detector; the pin is for uninstrumented builds", own, through)
	}
	if through > own {
		t.Fatalf("%d blocking writes: %v allocs through AsyncStore, %v by the server alone", len(chunks), through, own)
	}
}

// flushWatch notes requests that reach the store after its final Flush.
type flushWatch struct {
	fidr.Store
	flushed atomic.Bool
	late    atomic.Int32
}

func (f *flushWatch) Write(lba uint64, data []byte) error {
	if f.flushed.Load() {
		f.late.Add(1)
	}
	return f.Store.Write(lba, data)
}

func (f *flushWatch) Flush() error {
	err := f.Store.Flush()
	f.flushed.Store(true)
	return err
}

// TestAsyncSubmitRacesClose: every kind of submission racing Close ends
// in success or the closed error — never a send on a closed queue — and
// nothing reaches the store once the worker has flushed it.
func TestAsyncSubmitRacesClose(t *testing.T) {
	chunk := fidr.MakeChunk(1, 0.5)
	for round := 0; round < 20; round++ {
		srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
		if err != nil {
			t.Fatal(err)
		}
		fw := &flushWatch{Store: srv}
		a, err := fidr.NewAsync(fw, 4)
		if err != nil {
			t.Fatal(err)
		}
		st := blocking(t, a)
		submit := []func(lba uint64) error{
			func(lba uint64) error { return st.Write(lba, chunk) },
			func(lba uint64) error { return (<-a.WriteAsync(lba, chunk, nil)).Err },
			func(uint64) error { return a.Maintenance(func(fidr.Store) error { return nil }) },
		}
		var wg sync.WaitGroup
		for g := 0; g < 2*len(submit); g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 400; i++ {
					err := submit[g%len(submit)](uint64(g*1000 + i))
					if err != nil && err.Error() != "fidr: async store closed" {
						t.Errorf("submission racing Close: %v", err)
						return
					}
				}
			}(g)
		}
		for a.Completed() < uint64(20+10*round) {
			runtime.Gosched()
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if n := fw.late.Load(); n != 0 {
			t.Fatalf("round %d: %d writes served after the final flush", round, n)
		}
	}
}

// nopStore accepts everything and keeps nothing: what is left is the
// front-end's own cost.
type nopStore struct{}

func (nopStore) Write(uint64, []byte) error  { return nil }
func (nopStore) Read(uint64) ([]byte, error) { return nil, nil }
func (nopStore) Flush() error                { return nil }

// BenchmarkAsyncCall is one blocking write through AsyncStore over a store
// that does nothing: idle, one caller finds its group free every time;
// contended, parallel callers meet on the owner lock.
func BenchmarkAsyncCall(b *testing.B) {
	chunk := fidr.MakeChunk(1, 0.5)
	b.Run("idle", func(b *testing.B) {
		a, err := fidr.NewAsync(nopStore{}, 64)
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		st := blocking(b, a)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := st.Write(uint64(i), chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("contended", func(b *testing.B) {
		a, err := fidr.NewAsync(nopStore{}, 64)
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		st := blocking(b, a)
		b.ReportAllocs()
		b.SetParallelism(4)
		b.RunParallel(func(pb *testing.PB) {
			for i := uint64(0); pb.Next(); i++ {
				if err := st.Write(i, chunk); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
