package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Summary is the exact-quantile reference the histogram tests compare
// against. It has no caller outside tests, so it lives here rather
// than in the package API.

// SummaryReservoir caps the samples a Summary retains. Count, Mean, Min
// and Max stay exact via running accumulators; percentiles come from a
// uniform reservoir sample once the cap is exceeded, so memory stays
// bounded over arbitrarily long runs. Below the cap percentiles are
// exact.
const SummaryReservoir = 8192

// Summary accumulates a stream of float64 observations and reports count,
// mean, min, max and percentiles. Count/mean/min/max are exact (running
// accumulators); percentiles use nearest-rank over at most
// SummaryReservoir retained samples (reservoir sampling, deterministic
// xorshift RNG), exact until the cap is reached.
//
// Concurrency contract: a Summary is NOT safe for concurrent use. Each
// goroutine must own its Summary and fold results with Merge under the
// owner's serialization, or use Histogram, which is concurrent-safe and
// bounded by construction.
type Summary struct {
	count    uint64
	sum      float64
	min, max float64
	samples  []float64
	sorted   bool
	rng      uint64
}

// xorshift64 steps the deterministic reservoir RNG.
func (s *Summary) next() uint64 {
	if s.rng == 0 {
		s.rng = 0x9e3779b97f4a7c15
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if len(s.samples) < SummaryReservoir {
		s.samples = append(s.samples, v)
		s.sorted = false
		return
	}
	// Reservoir: keep v with probability cap/count, evicting a uniform
	// victim, so retained samples stay a uniform sample of the stream.
	if j := s.next() % s.count; j < SummaryReservoir {
		s.samples[j] = v
		s.sorted = false
	}
}

// Merge folds other into s. Exact accumulators combine exactly; the
// retained samples are concatenated and, if over the cap, uniformly
// down-sampled (an approximation when either side already overflowed its
// reservoir).
func (s *Summary) Merge(other *Summary) {
	if other.count == 0 {
		return
	}
	if s.count == 0 || other.min < s.min {
		s.min = other.min
	}
	if s.count == 0 || other.max > s.max {
		s.max = other.max
	}
	s.count += other.count
	s.sum += other.sum
	s.samples = append(s.samples, other.samples...)
	for len(s.samples) > SummaryReservoir {
		n := uint64(len(s.samples))
		j := s.next() % n
		s.samples[j] = s.samples[n-1]
		s.samples = s.samples[:n-1]
	}
	s.sorted = false
}

// Count returns the number of samples observed (not retained).
func (s *Summary) Count() int { return int(s.count) }

// Mean returns the exact arithmetic mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest sample, or 0 with no samples. Exact.
func (s *Summary) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample, or 0 with no samples. Exact.
func (s *Summary) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the retained samples, clamped into [Min, Max].
func (s *Summary) Percentile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	s.ensureSorted()
	rank := int(math.Ceil(p/100*float64(len(s.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	v := s.samples[rank]
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// TestSummaryBounded verifies the reservoir cap: a long stream keeps
// exact count/mean/min/max while retaining at most SummaryReservoir
// samples.
func TestSummaryBounded(t *testing.T) {
	var s Summary
	const n = 4 * SummaryReservoir
	var sum float64
	for i := 0; i < n; i++ {
		v := float64(i)
		s.Observe(v)
		sum += v
	}
	if s.Count() != n {
		t.Fatalf("count = %d, want %d", s.Count(), n)
	}
	if len(s.samples) > SummaryReservoir {
		t.Fatalf("retained %d samples, cap is %d", len(s.samples), SummaryReservoir)
	}
	if s.Min() != 0 || s.Max() != n-1 {
		t.Fatalf("min/max = %v/%v, want 0/%d", s.Min(), s.Max(), n-1)
	}
	if want := sum / n; s.Mean() != want {
		t.Fatalf("mean = %v, want exact %v", s.Mean(), want)
	}
	// Percentiles over a uniform stream stay near the true values.
	for _, p := range []float64{25, 50, 90} {
		want := p / 100 * n
		got := s.Percentile(p)
		if math.Abs(got-want) > 0.1*n {
			t.Errorf("p%.0f = %v, want ~%v", p, got, want)
		}
	}
}

// TestSummaryExactBelowCap: until the cap is hit, percentiles are exact
// nearest-rank, identical to the pre-reservoir behaviour.
func TestSummaryExactBelowCap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Summary
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.Float64() * 1e6
		s.Observe(vals[i])
	}
	if len(s.samples) != len(vals) {
		t.Fatalf("below cap, all samples must be retained: %d", len(s.samples))
	}
	if s.Percentile(100) != s.Max() || s.Percentile(0) != s.Min() {
		t.Fatal("p0/p100 must equal exact min/max")
	}
}

func TestSummaryMergeAccumulators(t *testing.T) {
	var a, b Summary
	for i := 0; i < 2*SummaryReservoir; i++ {
		a.Observe(float64(i))
		b.Observe(float64(i + 1000000))
	}
	a.Merge(&b)
	if a.Count() != 4*SummaryReservoir {
		t.Fatalf("merged count = %d", a.Count())
	}
	if len(a.samples) > SummaryReservoir {
		t.Fatalf("merged reservoir overflows: %d", len(a.samples))
	}
	if a.Min() != 0 || a.Max() != float64(1000000+2*SummaryReservoir-1) {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
}
