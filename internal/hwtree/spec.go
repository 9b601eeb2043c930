package hwtree

import (
	"fmt"

	"fidr/internal/metrics"
)

// Speculative concurrent-update execution (§5.5.1, Algorithms 1 and 2).
//
// The hardware issues up to W update requests into the pipeline without
// waiting for earlier ones to commit. Each request records the nodes it
// traverses; during the reverse (update) traversal it checks whether a
// concurrently issued request has speculatively modified any of those
// nodes or their neighbors. If so, the request "crashes": the crash/replay
// controller discards its staged changes and re-inserts it into the
// request queue. Because keys (bucket indexes of random hashes) spread
// uniformly over many leaves, crashes are rare (<0.1% in the paper), so
// W-way issue yields near-linear update throughput.

// UpdateKind distinguishes inserts (new cache line mapping) from deletes
// (cache line eviction).
type UpdateKind int

const (
	// UpdateInsert maps a bucket index to a cache line.
	UpdateInsert UpdateKind = iota
	// UpdateDelete removes a bucket mapping on eviction.
	UpdateDelete
)

// Update is one queued update request.
type Update struct {
	Kind UpdateKind
	Key  uint64
	Val  uint64
}

// ExecStats reports what the executor did.
type ExecStats struct {
	// Issued counts update issues into the pipeline, including replays.
	Issued uint64
	// Committed counts successfully committed updates.
	Committed uint64
	// Crashes counts wrong speculations (request touched a node another
	// in-flight request had speculatively updated).
	Crashes uint64
	// Windows counts pipeline issue windows executed.
	Windows uint64
}

// CrashRate returns crashes per issue.
func (s ExecStats) CrashRate() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Crashes) / float64(s.Issued)
}

// SpecExecutor drives a Tree with W-way speculative update issue.
type SpecExecutor struct {
	t *Tree
	// W is the number of concurrent in-flight updates (paper: up to 4).
	W int
	// Counters, so Stats may be read while another goroutine drives Drain.
	issued, committed, crashes, windows metrics.Counter

	queue []Update
	// Window scratch, owned across windows so a steady-state update
	// allocates nothing: the request's search path and leaf neighbours,
	// the window's speculative write set and its crashed requests.
	path, neighbors []NodeID
	specUpdated     map[NodeID]bool
	replay          []Update
}

// NewSpecExecutor wraps t with a W-way speculative update pipeline.
func NewSpecExecutor(t *Tree, w int) (*SpecExecutor, error) {
	if w < 1 {
		return nil, fmt.Errorf("hwtree: concurrency %d < 1", w)
	}
	return &SpecExecutor{t: t, W: w, specUpdated: make(map[NodeID]bool)}, nil
}

// Tree returns the underlying tree.
func (e *SpecExecutor) Tree() *Tree { return e.t }

// Stats returns execution statistics.
func (e *SpecExecutor) Stats() ExecStats {
	return ExecStats{
		Issued:    e.issued.Value(),
		Committed: e.committed.Value(),
		Crashes:   e.crashes.Value(),
		Windows:   e.windows.Value(),
	}
}

// Enqueue adds update requests to the command queue.
func (e *SpecExecutor) Enqueue(ups ...Update) {
	e.queue = append(e.queue, ups...)
}

// Pending returns queued-but-uncommitted request count.
func (e *SpecExecutor) Pending() int { return len(e.queue) }

// Drain executes the queue to completion, replaying crashed requests
// until none remain.
func (e *SpecExecutor) Drain() {
	for len(e.queue) > 0 {
		e.window()
	}
}

// window issues up to W requests concurrently: all requests in the window
// are in flight together, so a request conflicts with the speculative
// write set of every earlier request in the same window (Algorithm 1).
// Crashed requests are re-queued (Algorithm 2); committed ones apply.
func (e *SpecExecutor) window() {
	w := e.W
	if w > len(e.queue) {
		w = len(e.queue)
	}
	batch := e.queue[:w]
	rest := e.queue[w:]
	e.windows.Inc()

	clear(e.specUpdated)
	e.replay = e.replay[:0]
	for _, req := range batch {
		e.issued.Inc()
		// Search phase: record traversed nodes and leaf neighbors.
		e.path, e.neighbors = e.t.AppendPathTo(e.path[:0], e.neighbors[:0], req.Key)
		if e.speculated(e.path) || e.speculated(e.neighbors) {
			// Wrong speculation: discard and replay (Algorithm 2 line 2).
			e.crashes.Inc()
			e.replay = append(e.replay, req)
			continue
		}
		// Correct speculation: apply staged changes (Algorithm 2 lines
		// 4-7). Applying directly is equivalent to staging + commit
		// because the write sets of committed requests in this window
		// are disjoint from the read/write set of this one.
		var tc Touched
		switch req.Kind {
		case UpdateInsert:
			tc = e.t.Put(req.Key, req.Val)
		case UpdateDelete:
			_, tc = e.t.Delete(req.Key)
		}
		e.committed.Inc()
		// Only nodes the request *modified* enter the speculative set
		// (Algorithm 1 line 5); read-sharing of upper levels is safe.
		for _, id := range tc.IDs {
			e.specUpdated[id] = true
		}
	}
	// Replayed requests go to the front so ordering with later requests
	// on the same key is preserved. There are at most w of them, so they
	// land in the slots the window vacated and the queue keeps its array.
	n := copy(e.queue, e.replay)
	n += copy(e.queue[n:], rest)
	e.queue = e.queue[:n]
}

// speculated reports whether an earlier request of this window modified
// any of ids.
func (e *SpecExecutor) speculated(ids []NodeID) bool {
	for _, id := range ids {
		if e.specUpdated[id] {
			return true
		}
	}
	return false
}
