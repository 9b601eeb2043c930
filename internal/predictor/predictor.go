// Package predictor implements CIDR's software unique-chunk predictor.
//
// The baseline integrates hashing and compression in one accelerator, so
// compression cores need to know *which* chunks will turn out unique
// before the hashes come back (§2.3). CIDR solves this with a host-side
// predictor that samples each buffered chunk and guesses its uniqueness,
// letting the batch scheduler mark chunks for compression in a single
// accelerator pass. Observation #3: at scale this predictor becomes a
// first-order CPU (32.7%) and memory-bandwidth (23.7%) consumer — which
// is exactly why FIDR's in-NIC hashing removes it.
//
// The predictor here is functional: it samples 64 bytes of each chunk
// into a cheap 64-bit sketch and tracks recently seen sketches in a
// bounded table. Prediction quality is measured against the real dedup
// outcome so the baseline's mispredictions (recompressed duplicates /
// stalled uniques) can be quantified.
package predictor

import (
	"fidr/internal/hostmodel"
)

// Stats reports predictor activity and accuracy.
type Stats struct {
	Predictions     uint64
	PredictedUnique uint64
	// Outcomes recorded via Confirm:
	TrueUnique     uint64 // predicted unique, was unique
	FalseUnique    uint64 // predicted unique, was duplicate
	TrueDuplicate  uint64
	FalseDuplicate uint64 // predicted duplicate, was unique
}

// Accuracy returns the fraction of confirmed predictions that were right.
func (s Stats) Accuracy() float64 {
	total := s.TrueUnique + s.FalseUnique + s.TrueDuplicate + s.FalseDuplicate
	if total == 0 {
		return 0
	}
	return float64(s.TrueUnique+s.TrueDuplicate) / float64(total)
}

// Predictor guesses chunk uniqueness from sampled content. Not safe for
// concurrent use (the baseline runs it on the ingest thread, which is the
// point of the bottleneck).
type Predictor struct {
	capacity int
	sketches map[uint64]bool
	order    []uint64
	next     int

	ledger *hostmodel.Ledger
	stats  Stats
}

// New creates a predictor remembering up to capacity sketches.
func New(capacity int, ledger *hostmodel.Ledger) *Predictor {
	if capacity < 1 {
		capacity = 1
	}
	return &Predictor{
		capacity: capacity,
		sketches: make(map[uint64]bool, capacity),
		order:    make([]uint64, 0, capacity),
		ledger:   ledger,
	}
}

// sketch samples 8 qwords spread across the chunk into a 64-bit FNV-style
// fingerprint — cheap enough for a software fast path, collision-tolerant
// because mispredictions are validated later.
func sketch(data []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	if len(data) == 0 {
		return h
	}
	step := len(data) / 8
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(data); i += step {
		end := i + 8
		if end > len(data) {
			end = len(data)
		}
		for _, b := range data[i:end] {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}

// Predict returns true if the chunk is predicted unique. Counts one
// predictor event and charges its read of the chunk from the host buffer.
func (p *Predictor) Predict(data []byte) bool {
	p.ledger.Count(hostmodel.EvPredictorChunk, 1)
	p.ledger.MemPayload(hostmodel.PathPredictor, uint64(len(data)))
	p.stats.Predictions++

	k := sketch(data)
	if p.sketches[k] {
		return false
	}
	// Remember with bounded FIFO replacement.
	if len(p.order) < p.capacity {
		p.order = append(p.order, k)
	} else {
		delete(p.sketches, p.order[p.next])
		p.order[p.next] = k
		p.next = (p.next + 1) % p.capacity
	}
	p.sketches[k] = true
	p.stats.PredictedUnique++
	return true
}

// Confirm records the actual dedup outcome for a prediction.
func (p *Predictor) Confirm(predictedUnique, actuallyUnique bool) {
	switch {
	case predictedUnique && actuallyUnique:
		p.stats.TrueUnique++
	case predictedUnique && !actuallyUnique:
		p.stats.FalseUnique++
	case !predictedUnique && !actuallyUnique:
		p.stats.TrueDuplicate++
	default:
		p.stats.FalseDuplicate++
	}
}

// Stats returns a snapshot.
func (p *Predictor) Stats() Stats { return p.stats }
