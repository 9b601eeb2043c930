package metrics

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				c.Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1000*3 {
		t.Fatalf("counter = %d, want %d", got, 8*1000*3)
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty summary should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Observe(v)
	}
	if s.Count() != 5 {
		t.Errorf("count = %d", s.Count())
	}
	if s.Mean() != 3 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
}

func TestSummaryMerge(t *testing.T) {
	var a, b Summary
	a.Observe(1)
	b.Observe(3)
	a.Merge(&b)
	if a.Count() != 2 || a.Mean() != 2 {
		t.Fatalf("merge broken: count=%d mean=%v", a.Count(), a.Mean())
	}
}

func TestPercentileMonotonic(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Summary
		for i := 0; i < 100; i++ {
			s.Observe(rng.NormFloat64())
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.Row("alpha", 1.5)
	tab.Row("b", 42)
	tab.Note("calibrated against %s", "paper")
	out := tab.String()
	for _, want := range []string{"== Demo ==", "name", "alpha", "1.5", "42", "note: calibrated against paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:      "1",
		1.5:    "1.5",
		1.25:   "1.25",
		1.2345: "1.234",
		100:    "100",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q want %q", in, got, want)
		}
	}
}

func TestBytes(t *testing.T) {
	cases := map[uint64]string{
		512:       "512 B",
		2048:      "2.0 KiB",
		5 << 20:   "5.0 MiB",
		3 << 30:   "3.0 GiB",
		1<<40 + 1: "1.0 TiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%d) = %q want %q", in, got, want)
		}
	}
}

func TestRateAndPct(t *testing.T) {
	if got := GBps(75e9); got != "75.0 GB/s" {
		t.Errorf("GBps = %q", got)
	}
	if got := Pct(0.791); got != "79.1%" {
		t.Errorf("Pct = %q", got)
	}
}

func BenchmarkSummaryObserve(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i))
	}
}
