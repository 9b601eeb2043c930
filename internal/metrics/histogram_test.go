package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestBucketLayout(t *testing.T) {
	// The linear region is exact: bucket i holds exactly value i.
	for u := uint64(0); u < histSub; u++ {
		if got := bucketIndex(u); got != int(u) {
			t.Fatalf("bucketIndex(%d) = %d", u, got)
		}
	}
	// Indexes are contiguous and monotone across the whole range, and
	// every value falls inside its bucket's bounds.
	prev := -1
	for _, u := range []uint64{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 100,
		1000, 1 << 20, 1<<20 + 1, 1 << 40, 1 << 62, math.MaxUint64} {
		idx := bucketIndex(u)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", u, idx, prev)
		}
		prev = idx
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of [0,%d)", u, idx, histBuckets)
		}
		lower, upper := bucketBounds(idx)
		// The top bucket's upper bound saturates at MaxUint64 (2^64
		// overflows) and is inclusive there.
		if u < lower || (u >= upper && upper != math.MaxUint64) {
			t.Fatalf("value %d outside bucket %d bounds [%d,%d)", u, idx, lower, upper)
		}
	}
	// Bounds tile the axis: each bucket starts where the last ended.
	lastUpper := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lower, upper := bucketBounds(i)
		if lower != lastUpper {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lower, lastUpper)
		}
		if upper <= lower {
			t.Fatalf("bucket %d empty: [%d,%d)", i, lower, upper)
		}
		lastUpper = upper
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Mean() != 3 {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Small integers land in the exact linear region; midpoint of the
	// unit bucket [3,4) is 3.5 but clamping keeps quantiles in range.
	if q := h.Quantile(1); q != 5 {
		t.Errorf("q100 = %v", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("q0 clamped = %v", q)
	}
}

// TestHistogramPercentileAccuracy checks histogram quantiles against the
// exact Summary on the same stream: the log-linear layout bounds the
// relative error at 1/histSub plus half a bucket of midpoint skew.
func TestHistogramPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	var s Summary
	for i := 0; i < 5000; i++ {
		// Latency-like values spanning several octaves.
		v := math.Exp(rng.Float64()*8) * 100
		h.Observe(v)
		s.Observe(v)
	}
	if h.Count() != uint64(s.Count()) {
		t.Fatalf("count mismatch: %d vs %d", h.Count(), s.Count())
	}
	if math.Abs(h.Mean()-s.Mean()) > 1e-6*s.Mean() {
		t.Fatalf("mean mismatch: %v vs %v", h.Mean(), s.Mean())
	}
	for _, p := range []float64{10, 25, 50, 90, 99} {
		exact := s.Percentile(p)
		est := h.Quantile(p / 100)
		if rel := math.Abs(est-exact) / exact; rel > 2.0/histSub {
			t.Errorf("p%.0f: est %v vs exact %v (rel err %.3f)", p, est, exact, rel)
		}
	}
	// One estimator: the snapshot's quantiles are FillQuantiles over its
	// own buckets, and Quantile agrees with it at every q.
	snap := h.Snapshot()
	refill := snap
	refill.P50, refill.P90, refill.P99 = 0, 0, 0
	refill.FillQuantiles()
	if refill.P50 != snap.P50 || refill.P90 != snap.P90 || refill.P99 != snap.P99 {
		t.Errorf("snapshot p50/p90/p99 %v/%v/%v, FillQuantiles over its buckets %v/%v/%v",
			snap.P50, snap.P90, snap.P99, refill.P50, refill.P90, refill.P99)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		want := quantileFromBuckets(snap.Buckets, snap.Count, q, snap.Min, snap.Max)
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, estimator over the snapshot's buckets = %v", q, got, want)
		}
	}
	// Quantiles are monotone and bounded by min/max.
	prev := h.Quantile(0)
	for q := 0.05; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantiles not monotone at %v: %v < %v", q, cur, prev)
		}
		prev = cur
	}
	if h.Quantile(1) > h.Max() || h.Quantile(0) < h.Min() {
		t.Fatal("quantiles escape [min,max]")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	n := uint64(goroutines * per)
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if h.Min() != 0 || h.Max() != float64(n-1) {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	wantMean := float64(n-1) / 2
	if math.Abs(h.Mean()-wantMean) > 1e-6 {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	snap := h.Snapshot()
	if snap.P50 > snap.P90 || snap.P90 > snap.P99 || snap.P99 > snap.Max {
		t.Fatalf("snapshot not ordered: %+v", snap)
	}
}

func TestHistogramClampsNegativeAndNaN(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	h.Observe(math.NaN())
	if h.Count() != 2 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative/NaN not clamped: count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		v := 0
		for pb.Next() {
			h.Observe(float64(v))
			v++
		}
	})
}
