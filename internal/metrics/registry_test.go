package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b")
	c2 := r.Counter("a.b")
	if c1 != c2 {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram not idempotent")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("core.writes").Inc()
				r.Gauge("core.ratio").Set(0.5)
				r.Histogram("stage.hash.ns").Observe(float64(i))
				_ = r.Dump()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("core.writes").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("stage.hash.ns").Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

func TestRegistryDumpFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.writes").Add(640)
	r.Counter("core.reads").Add(2)
	r.Gauge("core.reduction_ratio").Set(0.413)
	h := r.Histogram("stage.hash.ns")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i * 1000))
	}
	dump := r.Dump()

	lines := strings.Split(strings.TrimSpace(dump), "\n")
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 4:\n%s", len(lines), dump)
	}
	// Counters first (sorted), then gauges, then histograms.
	if !strings.HasPrefix(lines[0], "counter core.reads 2") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "counter core.writes 640") {
		t.Errorf("line 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "gauge core.reduction_ratio 0.413") {
		t.Errorf("line 2 = %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "hist stage.hash.ns count=100 ") {
		t.Errorf("line 3 = %q", lines[3])
	}
	for _, field := range []string{"mean=", "min=", "p50=", "p90=", "p99=", "max="} {
		if !strings.Contains(lines[3], field) {
			t.Errorf("hist line missing %q: %q", field, lines[3])
		}
	}
	// Every line is parseable as whitespace-separated fields with the
	// kind first — the contract fidrcli stats relies on.
	for _, ln := range lines {
		f := strings.Fields(ln)
		if len(f) < 3 {
			t.Errorf("line %q has %d fields", ln, len(f))
		}
		if k := f[0]; k != "counter" && k != "gauge" && k != "hist" {
			t.Errorf("unknown kind %q in %q", k, ln)
		}
	}
}

// TestRegistryAttach pins the attach contract: the registry serves the
// owner's instance (so earlier counts are in the series and later ones
// need no second increment), one instance can carry two names, derived
// series sort in with the counters, and get-or-create on an attached
// name returns the attached instance.
func TestRegistryAttach(t *testing.T) {
	var stored, other Counter
	var depth Gauge
	stored.Add(7) // counted before the registry exists
	r := NewRegistry()
	r.AttachCounter("core.stored_bytes", &stored)
	r.AttachCounter("capacity.stored_bytes", &stored)
	r.AttachCounter("core.other", &other)
	r.AttachGauge("nic.queue_depth", &depth)
	r.AttachDerived(func(emit func(string, uint64)) {
		emit("core.total", stored.Value()+other.Value())
		emit("a.first", 1)
	})
	stored.Add(3)
	other.Inc()
	depth.Set(4)

	if r.Counter("core.stored_bytes") != &stored {
		t.Error("get-or-create on an attached name made a second counter")
	}
	want := "counter a.first 1\n" +
		"counter capacity.stored_bytes 10\n" +
		"counter core.other 1\n" +
		"counter core.stored_bytes 10\n" +
		"counter core.total 11\n" +
		"gauge nic.queue_depth 4\n"
	if got := r.Dump(); got != want {
		t.Errorf("dump:\n%s\nwant:\n%s", got, want)
	}
}
