// Package lanes is the fork-join primitive behind the paper's
// accelerator arrays. The FIDR NIC carries an array of SHA-256 hash
// cores and the Compression Engine an array of LZ77 pipelines; this
// package models each array as a pool of worker goroutines ("lanes")
// that a batch fans out across.
//
// Two properties make the model faithful and safe:
//
//   - Deterministic work assignment. Item i always runs on lane
//     i mod k, so a run's lane schedule is a pure function of the batch,
//     never of goroutine timing.
//   - Fork-join scope. Run returns only after every lane finishes, so
//     callers commit results strictly in item order after the join and
//     the surrounding code stays single-threaded. Parallelism never
//     leaks past the accelerator boundary.
//
// Per-lane busy time is returned for the duty-cycle accounting plane
// (nic.hash_lane_busy_ns, engine.compress_lane_busy_ns).
package lanes

import (
	"runtime"
	"sync"
	"time"
)

// maxDefault bounds the GOMAXPROCS-derived lane count: the paper's
// largest array is 16 SHA cores, and fan-out past the core count only
// adds scheduling overhead.
const maxDefault = 16

// Default returns the GOMAXPROCS-derived lane count used when a
// configuration leaves the lane count at zero.
func Default() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxDefault {
		n = maxDefault
	}
	return n
}

// Normalize resolves a configured lane count: zero or negative selects
// Default.
func Normalize(n int) int {
	if n <= 0 {
		return Default()
	}
	return n
}

// Clamp bounds a lane count by the number of work items (spawning more
// lanes than items is pure overhead). The result is at least 1.
func Clamp(lanesN, items int) int {
	lanesN = Normalize(lanesN)
	if lanesN > items {
		lanesN = items
	}
	if lanesN < 1 {
		lanesN = 1
	}
	return lanesN
}

// Run fans items [0, n) out across k lanes and blocks until all lanes
// finish. Lane l processes items l, l+k, l+2k, ... in ascending order,
// so the item->lane assignment is deterministic. fn must only touch
// state owned by its item (distinct slice elements are fine); cross-item
// state must wait for Run to return.
//
// The returned slice holds each lane's busy time, for accelerator
// duty-cycle accounting. With k <= 1 (or n <= 1) the work runs inline on
// the calling goroutine.
func Run(n, k int, fn func(lane, item int)) []time.Duration {
	if n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k <= 1 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return []time.Duration{time.Since(start)}
	}
	busy := make([]time.Duration, k)
	stride := k // k was reassigned above; a fresh name is captured by value, not moved to the heap
	var wg sync.WaitGroup
	wg.Add(k)
	for l := 0; l < k; l++ {
		go func(l int) {
			defer wg.Done()
			start := time.Now()
			for i := l; i < n; i += stride {
				fn(l, i)
			}
			busy[l] = time.Since(start)
		}(l)
	}
	wg.Wait()
	return busy
}

// Total sums per-lane busy durations (the accelerator-array busy time;
// it can exceed wall time when lanes overlap).
func Total(busy []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range busy {
		t += d
	}
	return t
}
