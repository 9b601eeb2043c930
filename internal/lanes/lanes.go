// Package lanes is the fork-join primitive behind the paper's
// accelerator arrays, and the lane count every array is sized by. The
// Compression Engine's array of LZ77 pipelines (and the baseline's FPGA
// hash array) is a pool of worker goroutines ("lanes") that a batch fans
// out across; the FIDR NIC's SHA-256 cores hash chunks as they arrive
// instead (package nic) and take only their count from here.
//
// Two properties make the model faithful and safe:
//
//   - Deterministic work assignment. Item i always runs on lane
//     i mod k, so a run's lane schedule is a pure function of the batch,
//     never of goroutine timing.
//   - Fork-join scope. A round ends only after every lane finishes, so
//     callers commit results strictly in item order after the join and
//     the surrounding code stays single-threaded. Parallelism never
//     leaks past the accelerator boundary: no goroutine outlives Run.
//
// Per-lane busy time is returned for the duty-cycle accounting plane
// (engine.compress_lane_busy_ns).
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
// duty-cycle accounting. Lane 0 runs on the calling goroutine, so with
// k <= 1 (or n <= 1) nothing is spawned. Run is one round of a Group
// built for the call; a caller that runs rounds repeatedly holds a Group
// and pays for its closures and busy slice once.
func Run(n, k int, fn func(lane, item int)) []time.Duration {
	return NewGroup(fn).Run(n, k)
}

// Group is an owner-held fork-join scope: the item function is bound at
// construction and the busy slice, the WaitGroup and the lanes' entry
// points are reused, so a round allocates nothing once the group has run
// at its widest. One round at a time; not safe for concurrent use.
type Group struct {
	fn func(lane, item int)
	// n and k are the current round's item and lane counts; the lane
	// goroutines read them, so they change only between rounds.
	n, k int
	busy []time.Duration
	wg   sync.WaitGroup
	// entry[l] is lane l's goroutine body, built once so that a `go`
	// statement captures nothing.
	entry []func()
}

// NewGroup binds fn, which must follow Run's rules, to a new group.
func NewGroup(fn func(lane, item int)) *Group { return &Group{fn: fn} }

// lane runs lane l's share of the current round on the calling goroutine.
func (g *Group) lane(l int) {
	start := time.Now()
	for i := l; i < g.n; i += g.k {
		g.fn(l, i)
	}
	g.busy[l] = time.Since(start)
}

// fork starts lanes 1..k-1 of the current round on goroutines and, if
// it started any, yields once. A goroutine just started sits in this P's
// run-next slot, and while the caller keeps running an idle P takes it
// from there too late or never: measured on two CPUs, a caller that runs
// lane 0 right after the `go` finishes 64 SHA-256 items in the serial time
// (190 of 186 µs), one that yields first in 125-140 µs. The yield puts the
// caller on the global queue, where a waking P looks first, and this P
// starts a lane at once.
func (g *Group) fork() {
	if g.k == 1 {
		return
	}
	for len(g.entry) < g.k {
		l := len(g.entry)
		g.entry = append(g.entry, func() {
			g.lane(l)
			g.wg.Done()
		})
	}
	g.wg.Add(g.k - 1)
	for l := 1; l < g.k; l++ {
		go g.entry[l]()
	}
	runtime.Gosched()
}

// Run is one whole round: lanes 1..k-1 on goroutines, lane 0 on the
// caller, then the join. It returns each lane's busy time (nil for an
// empty round), valid until the next round.
func (g *Group) Run(n, k int) []time.Duration {
	if n <= 0 {
		return nil
	}
	g.n, g.k = n, max(min(k, n), 1)
	if len(g.busy) < g.k {
		g.busy = make([]time.Duration, g.k)
	}
	g.fork()
	g.lane(0)
	g.wg.Wait()
	return g.busy[:g.k]
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
