package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram layout: log-linear ("HDR-style") buckets. Values are split
// into octaves (powers of two); each octave is divided into histSub
// linear sub-buckets, bounding the relative quantile error at
// 1/histSub (6.25%) while keeping the bucket array small and fixed.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // sub-buckets per octave

	// histBuckets covers every uint64: indexes run [0, histSub) for the
	// linear region and (k-histSubBits)*histSub + mantissa for octaves
	// k = histSubBits..63, peaking at (63-histSubBits)*histSub + 2*histSub.
	histBuckets = (63-histSubBits)*histSub + 2*histSub
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(u uint64) int {
	if u < histSub {
		return int(u)
	}
	k := bits.Len64(u) - 1 // 2^k <= u < 2^(k+1)
	shift := uint(k - histSubBits)
	m := int(u >> shift) // mantissa in [histSub, 2*histSub)
	return (k-histSubBits)*histSub + m
}

// bucketBounds returns the half-open value range [lower, upper) of a bucket.
func bucketBounds(idx int) (lower, upper uint64) {
	if idx < histSub {
		return uint64(idx), uint64(idx) + 1
	}
	k := idx/histSub + histSubBits - 1
	shift := uint(k - histSubBits)
	m := uint64(idx%histSub + histSub)
	lower = m << shift
	upper = lower + 1<<shift
	if upper < lower { // top bucket: 2^64 overflows
		upper = math.MaxUint64
	}
	return lower, upper
}

// Histogram is a bounded, lock-free distribution: fixed log-linear
// buckets for quantiles plus exact running count/sum/min/max. Memory is
// constant regardless of how many values are observed, so it is safe on
// hot paths of long-lived daemons. All methods may be called from any
// goroutine. Negative and NaN observations are clamped to zero (the
// histogram records magnitudes: durations, sizes, counts).
//
// Quantiles are bucket-midpoint estimates with relative error bounded by
// the sub-bucket width (6.25%), clamped into [Min, Max] so that
// P50 <= P99 <= Max always holds. Mean is exact.
type Histogram struct {
	counts  [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // float64 bits; +Inf until first Observe
	maxBits atomic.Uint64 // float64 bits; -Inf until first Observe
}

// NewHistogram returns an empty histogram. Always use the constructor:
// the zero value mis-reports Min.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	u := uint64(0)
	if v >= math.MaxUint64 {
		u = math.MaxUint64
	} else {
		u = uint64(v)
	}
	h.counts[bucketIndex(u)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the exact running sum.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the exact arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation, or 0 with none.
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation, or 0 with none.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile returns the q-th quantile estimate (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) float64 {
	bs, total := h.buckets()
	return quantileFromBuckets(bs, total, q, h.Min(), h.Max())
}

// buckets reads the occupied buckets in ascending value order, one pass
// over the array, and the sum of their counts.
func (h *Histogram) buckets() (bs []BucketCount, total uint64) {
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		lower, upper := bucketBounds(i)
		bs = append(bs, BucketCount{Lower: float64(lower), Upper: float64(upper), Count: c})
		total += c
	}
	return bs, total
}

// BucketCount is one occupied histogram bucket: the half-open value
// range [Lower, Upper) and the number of observations that fell in it.
type BucketCount struct {
	Lower, Upper float64
	Count        uint64
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count          uint64
	Sum            float64
	Mean, Min, Max float64
	P50, P90, P99  float64
	// Buckets lists the occupied buckets in ascending value order. All
	// histograms share one bucket layout, so snapshots merge bucket-wise
	// (see MergeHistogramSnapshots) and encode to Prometheus exactly.
	Buckets []BucketCount
}

// Snapshot captures the histogram's current summary. Under concurrent
// Observe the fields are each individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
	}
	s.Buckets, _ = h.buckets()
	s.FillQuantiles()
	return s
}

// quantileFromBuckets estimates the q-th quantile from occupied buckets
// as the midpoint of the bucket holding the rank, clamped into
// [min, max]; q <= 0 and q >= 1 are min and max exactly.
func quantileFromBuckets(bs []BucketCount, total uint64, q, min, max float64) float64 {
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range bs {
		cum += b.Count
		if cum >= rank {
			est := (b.Lower + b.Upper) / 2
			if est > max {
				est = max
			}
			if est < min {
				est = min
			}
			return est
		}
	}
	return max
}

// MergeHistogramSnapshots folds b into a, returning the combined
// distribution. Count, Sum, Min and Max combine exactly; the buckets
// merge bucket-wise (all histograms share one layout), so the merged
// percentiles carry the same error bound as a single histogram's.
func MergeHistogramSnapshots(a, b HistogramSnapshot) HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := HistogramSnapshot{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Min:   math.Min(a.Min, b.Min),
		Max:   math.Max(a.Max, b.Max),
	}
	out.Mean = out.Sum / float64(out.Count)
	i, j := 0, 0
	for i < len(a.Buckets) || j < len(b.Buckets) {
		switch {
		case j >= len(b.Buckets) || (i < len(a.Buckets) && a.Buckets[i].Lower < b.Buckets[j].Lower):
			out.Buckets = append(out.Buckets, a.Buckets[i])
			i++
		case i >= len(a.Buckets) || b.Buckets[j].Lower < a.Buckets[i].Lower:
			out.Buckets = append(out.Buckets, b.Buckets[j])
			j++
		default: // same bucket
			m := a.Buckets[i]
			m.Count += b.Buckets[j].Count
			out.Buckets = append(out.Buckets, m)
			i++
			j++
		}
	}
	out.FillQuantiles()
	return out
}

// FillQuantiles sets P50, P90 and P99 from Buckets, Min and Max with the
// registry's one estimator (quantileFromBuckets), which Histogram.Quantile,
// Snapshot, merged snapshots and snapshots bridged from another
// histogram layout (health.Runtime) all share.
func (s *HistogramSnapshot) FillQuantiles() {
	var total uint64
	for _, bc := range s.Buckets {
		total += bc.Count
	}
	s.P50 = quantileFromBuckets(s.Buckets, total, 0.50, s.Min, s.Max)
	s.P90 = quantileFromBuckets(s.Buckets, total, 0.90, s.Min, s.Max)
	s.P99 = quantileFromBuckets(s.Buckets, total, 0.99, s.Min, s.Max)
}
