package fidr_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fidr"
	"fidr/internal/metrics"
	"fidr/internal/metrics/health"
	"fidr/internal/trace/span"
)

var raceEnabled bool // set by race_test.go under -race

// TestAsyncBlockingAfterAsyncKeepsOrder: a read never overtakes a write
// to the same LBA that returned before it was issued, even when the
// write ran on another goroutine and other callers share the group.
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
			const callers = 4
			var wg sync.WaitGroup
			for c := uint64(0); c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := uint64(0); i < 250; i++ {
						lba := 100*c + i%37
						v2 := fidr.MakeChunk(1000*c+i, 0.5)
						wrote := make(chan error)
						go func() { wrote <- as.Write(lba, v2) }()
						if err := <-wrote; err != nil {
							t.Errorf("caller %d iteration %d: %v", c, i, err)
							return
						}
						got, err := as.Read(lba)
						if err != nil {
							t.Errorf("caller %d iteration %d: %v", c, i, err)
							return
						}
						if !bytes.Equal(got, v2) {
							t.Errorf("caller %d iteration %d: read overtook the write that returned before it", c, i)
							return
						}
					}
				}()
			}
			wg.Wait()
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

// TestAsyncInlineObserved: a blocking call runs on the caller's
// goroutine and is observed in full: inside the group heartbeat, one
// stage.queue_wait.ns observation on the server, the counters, and,
// traced, one async.queue span under the caller's span.
func TestAsyncInlineObserved(t *testing.T) {
	srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	sreg := srv.EnableObservability(nil)
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
		t.Fatalf("blocking calls served on the caller's goroutine: %v, want [true true]", inline)
	}
	if busy[0] != 1 || busy[1] != 1 || hb.Busy() != 0 {
		t.Errorf("heartbeat busy %v during the calls and %d after, want [1 1] and 0", busy, hb.Busy())
	}
	if got := sreg.Histogram("stage.queue_wait.ns").Count(); got != 2 {
		t.Errorf("stage.queue_wait.ns count = %d, want 2", got)
	}
	if w, in, done := reg.Counter("async.writes").Value(), reg.Gauge("async.inflight").Value(), a.Completed(0); w != 2 || in != 0 || done != 2 {
		t.Errorf("async.writes %d, async.inflight %v, completed %d; want 2, 0, 2", w, in, done)
	}
	var queue []span.Span
	for _, sp := range col.Trace(sc.Trace) {
		if sp.Name == "async.queue" {
			queue = append(queue, sp)
		}
	}
	if len(queue) != 1 || queue[0].Parent != sc.Parent || queue[0].LBA != 2 {
		t.Fatalf("traced call left async.queue spans %+v, want one under %s", queue, sc.Parent)
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
// themselves, yet a Maintenance closure still has the store to itself,
// and so does every one of them.
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

// gateStore holds every write until gate is closed.
type gateStore struct {
	nopStore
	gate chan struct{}
}

func (g gateStore) Write(uint64, []byte) error { <-g.gate; return nil }

// TestAsyncQueueDepthCountsBlockingCallers: the queue depth fidrd
// publishes counts the blocking callers it serves — one holding the
// group, two waiting for it — and a stuck-queue probe built as NewNode
// builds it trips on them. The probe is fed synthetic times.
func TestAsyncQueueDepthCountsBlockingCallers(t *testing.T) {
	gs := gateStore{gate: make(chan struct{})}
	a, err := fidr.NewAsync(gs, 8)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	a.EnableObservability(reg)
	st := blocking(t, a)
	const callers = 3
	var wg sync.WaitGroup
	for i := uint64(0); i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Write(i, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	for reg.Gauge("async.inflight").Value() != callers {
		runtime.Gosched()
	}
	const deadline = time.Second
	probe := health.ProgressProbe("async.queue.g0", deadline,
		func() int { return a.QueueDepth(0) }, func() uint64 { return a.Completed(0) })
	t0 := time.Unix(1_700_000_000, 0)
	probe.Check(t0)
	stuck, _, _ := probe.Check(t0.Add(2 * deadline))
	depth := a.QueueDepth(0)
	close(gs.gate)
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if depth != callers || !stuck {
		t.Fatalf("QueueDepth %d, stuck-queue probe tripped %v; want %d, true", depth, stuck, callers)
	}
	if a.QueueDepth(0) != 0 {
		t.Fatalf("QueueDepth %d once every caller returned, want 0", a.QueueDepth(0))
	}
}

// TestAsyncStuckQueueProbePerGroup: a group whose owner is wedged trips
// its stuck-queue probe even while another group keeps completing
// requests. The probe is built as NewNode builds it and fed synthetic
// times.
func TestAsyncStuckQueueProbePerGroup(t *testing.T) {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fidr.NewAsync(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := blocking(t, a)
	lbaIn := func(group int) uint64 {
		lba := uint64(0)
		for c.GroupFor(lba) != group {
			lba++
		}
		return lba
	}
	chunk := fidr.MakeChunk(1, 0.5)

	// Wedge group 0's owner inside a maintenance pass.
	held, release := make(chan struct{}), make(chan struct{})
	maintained := make(chan error, 1)
	go func() {
		maintained <- a.Maintenance(func(s fidr.Store) error {
			if s == c.Group(0) {
				close(held)
				<-release
			}
			return nil
		})
	}()
	<-held
	wrote := make(chan error, 1)
	go func() { wrote <- st.Write(lbaIn(0), chunk) }()
	for a.QueueDepth(0) != 1 {
		runtime.Gosched()
	}

	const deadline = time.Second
	probe := health.ProgressProbe("async.queue.g0", deadline,
		func() int { return a.QueueDepth(0) }, func() uint64 { return a.Completed(0) })
	t0 := time.Unix(1_700_000_000, 0)
	probe.Check(t0)
	other := st.Write(lbaIn(1), chunk)
	stuck, _, _ := probe.Check(t0.Add(2 * deadline))

	close(release)
	if other != nil {
		t.Fatal(other)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := <-maintained; err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if !stuck {
		t.Fatal("async.queue.g0 did not trip while group 1 completed a request")
	}
	if a.Completed(0) != 1 || a.Completed(1) != 1 {
		t.Fatalf("completed per group %d, %d; want 1, 1", a.Completed(0), a.Completed(1))
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
// in success or the closed error, and nothing reaches the store once
// Close has flushed it.
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
		for a.Completed(0) < uint64(20+10*round) {
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
