package fidr_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"fidr"
)

// blocking is the blocking spelling over a: the AsyncStore the
// listener serves.
func blocking(tb testing.TB, a *fidr.Async) *fidr.AsyncStore {
	tb.Helper()
	st, err := fidr.NewAsyncStore(a, fidr.ChunkSize)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func TestAsyncValidation(t *testing.T) {
	srv, _ := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if _, err := fidr.NewAsync(srv, 0); err == nil {
		t.Fatal("zero depth accepted")
	}
}

func TestAsyncRoundTripServer(t *testing.T) {
	srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	a, err := fidr.NewAsync(srv, 16)
	if err != nil {
		t.Fatal(err)
	}
	st := blocking(t, a)
	for i := uint64(0); i < 200; i++ {
		if err := st.Write(i, fidr.MakeChunk(i%50, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 200; i++ {
		got, err := st.Read(i)
		if err != nil || !bytes.Equal(got, fidr.MakeChunk(i%50, 0.5)) {
			t.Fatalf("async read %d failed: %v", i, err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Submissions after Close fail cleanly.
	if err := st.Write(1, fidr.MakeChunk(1, 0.5)); err == nil {
		t.Fatal("write accepted after close")
	}
	if _, err := st.Read(1); err == nil {
		t.Fatal("read accepted after close")
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close not idempotent")
	}
}

func TestAsyncPipelinedSubmission(t *testing.T) {
	srv, _ := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	a, _ := fidr.NewAsync(srv, 64)
	defer a.Close()
	st := blocking(t, a)
	// A burst of concurrent writers, twice the depth bound: the ones
	// beyond it wait for admission, and every write lands.
	errs := make([]error, 128)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = st.Write(uint64(i), fidr.MakeChunk(uint64(i), 0.5))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := range errs {
		got, err := st.Read(uint64(i))
		if err != nil || !bytes.Equal(got, fidr.MakeChunk(uint64(i), 0.5)) {
			t.Fatalf("read %d after the burst: %v", i, err)
		}
	}
	// Same-LBA ordering: an overwrite that returned lands before a later read.
	if err := st.Write(5, fidr.MakeChunk(777, 0.5)); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Read(5); err != nil || !bytes.Equal(got, fidr.MakeChunk(777, 0.5)) {
		t.Fatal("read did not observe the earlier write")
	}
}

// TestAsyncDataCopiedOnSubmit: the store keeps its own copy of a
// blocking write's payload, so mutating the buffer after Write returns
// does not reach it.
func TestAsyncDataCopiedOnSubmit(t *testing.T) {
	srv, _ := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	a, _ := fidr.NewAsync(srv, 8)
	defer a.Close()
	st := blocking(t, a)
	buf := fidr.MakeChunk(1, 0.5)
	if err := st.Write(9, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF // mutate after the write returned
	got, err := st.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fidr.MakeChunk(1, 0.5)) {
		t.Fatal("store aliased the caller's buffer")
	}
}

func TestAsyncClusterParallelWorkers(t *testing.T) {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fidr.NewAsync(c, 32)
	if err != nil {
		t.Fatal(err)
	}
	st := blocking(t, a)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * 1000
			for i := uint64(0); i < 100; i++ {
				if err := st.Write(base+i, fidr.MakeChunk(base+i, 0.5)); err != nil {
					errs <- err
					return
				}
			}
			for i := uint64(0); i < 100; i++ {
				got, err := st.Read(base + i)
				if err != nil || !bytes.Equal(got, fidr.MakeChunk(base+i, 0.5)) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ClientWrites; got != 800 {
		t.Fatalf("cluster saw %d writes", got)
	}
}

// TestAsyncStartsNoGoroutine: the front-end runs every request on its
// caller, so building one over four groups starts nothing, and once
// its callers have returned and it is closed nothing of it is left.
func TestAsyncStartsNoGoroutine(t *testing.T) {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 4)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	a, err := fidr.NewAsync(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("NewAsync over %d groups: %d goroutines, %d before", a.Workers(), n, before)
	}
	st := blocking(t, a)
	var wg sync.WaitGroup
	for i := uint64(0); i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.Write(i, fidr.MakeChunk(i, 0.5)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// A writer may still be between its Done and its exit; yielding lets
	// it finish. The bound counts yields, not time.
	n := runtime.NumGoroutine()
	for yields := 0; n > before && yields < 100000; yields++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("after 200 writes and Close: %d goroutines, %d before NewAsync", n, before)
	}
}

func BenchmarkAsyncClusterWrites(b *testing.B) {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 4)
	if err != nil {
		b.Fatal(err)
	}
	a, err := fidr.NewAsync(c, 256)
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	st := blocking(b, a)
	chunk := fidr.MakeChunk(1, 0.5)
	b.SetBytes(fidr.ChunkSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			if err := st.Write(i*31, chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
}
