// Package lanes is the work pool behind the paper's accelerator arrays,
// and the lane count every array is sized by. A server's hash array (the
// FIDR NIC's SHA-256 cores or the baseline's FPGA hash array) and its
// container-write round are jobs on its one Pool: the job's caller and up
// to k−1 resident helpers claim items from the job's cursor, each touching
// only its item's slot, so callers commit in item order after a join that
// spins instead of parking, or wait for one item while running the next
// ones themselves (RunNext; DESIGN §9).
package lanes

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxDefault bounds the GOMAXPROCS-derived lane count: the paper's
// largest array is 16 SHA cores, and fan-out past the core count only
// adds scheduling overhead.
const maxDefault = 16

// Default returns the GOMAXPROCS-derived lane count used when a
// configuration leaves the lane count at zero.
func Default() int { return min(max(runtime.GOMAXPROCS(0), 1), maxDefault) }

// Normalize resolves a configured lane count: zero or negative selects
// Default.
func Normalize(n int) int {
	if n <= 0 {
		return Default()
	}
	return n
}

// idleSpin is how long a helper that finds nothing to claim keeps looking
// before it exits: long enough to outlast a commit's tail between batches.
// A spinning P does not poll the network, so it is short: on a 2-vCPU
// Xeon 50 µs cost loopback traffic a fifth of its throughput, 15 µs a tenth.
const idleSpin = 15 * time.Microsecond

// Job priorities: a helper takes the oldest queued job of the lowest.
// Waited work is about to be joined (the container-write round, which the
// next tip reaps); Ahead work is done before its join is due (the NIC
// hashing a filling buffer).
const (
	Waited = iota
	Ahead
)

// Pool is one server's helpers and the queue of jobs they claim from.
type Pool struct {
	mu sync.Mutex
	// queue holds the jobs with unclaimed items in serving order; idle
	// helpers poll its length, queued, without the lock.
	queue   []*Job
	queued  atomic.Int32
	helpers int // resident, idle ones included
	// help is a helper's body, built once so that a start allocates nothing.
	help func()
}

// NewPool returns a pool with no helper running.
func NewPool() *Pool {
	p := &Pool{}
	p.help = p.helper
	return p
}

// Job is a reusable item function with a claim cursor. Its rounds run one
// at a time: Post opens or extends one, Join or Stop ends it.
type Job struct {
	fn   func(i int)
	prio int
	// Under the pool's mu: the round's pool, items posted, next unclaimed,
	// lanes (the caller plus lanes−1 helpers at once), and whether the job
	// is queued.
	p       *Pool
	n, next int
	lanes   int
	inQueue bool
	// busy sums the round's item times, whoever ran them.
	busy     atomic.Int64
	inflight atomic.Int32 // items helpers claimed and have not finished
}

// NewJob binds fn, which may touch only the state of its item i, to a
// job of priority prio (Waited or Ahead).
func NewJob(prio int, fn func(i int)) *Job { return &Job{fn: fn, prio: prio} }

// Post makes items [0, n) of j's round claimable on p (n only grows in a
// round) by at most lanes goroutines at once, the caller included. While
// fewer than lanes−1 helpers are resident and backlog items are unclaimed
// beyond one per resident helper, it starts another.
func (p *Pool) Post(j *Job, n, lanes, backlog int) {
	p.mu.Lock()
	j.p, j.n, j.lanes = p, n, lanes
	if j.next < j.n && !j.inQueue {
		i := len(p.queue)
		for i > 0 && p.queue[i-1].prio > j.prio {
			i--
		}
		p.setQueue(slices.Insert(p.queue, i, j))
		j.inQueue = true
	}
	for p.helpers < lanes-1 && j.n-j.next-p.helpers >= backlog {
		p.helpers++
		go p.help()
	}
	p.mu.Unlock()
}

func (p *Pool) setQueue(q []*Job) {
	p.queue = q
	p.queued.Store(int32(len(q)))
}

// take claims j's next item, or with skip every item left, and dequeues j
// once none is left. Called with mu held.
func (p *Pool) take(j *Job, skip bool) int {
	i := j.next
	if j.next++; skip {
		j.next = j.n
	}
	if j.next >= j.n && j.inQueue {
		k := slices.Index(p.queue, j)
		p.setQueue(slices.Delete(p.queue, k, k+1))
		j.inQueue = false
	}
	return i
}

// helper claims items until it has found none for idleSpin, then exits.
func (p *Pool) helper() {
	var idle time.Time
	p.mu.Lock()
	for {
		k := slices.IndexFunc(p.queue, (*Job).admits)
		if k < 0 {
			if idle.IsZero() {
				idle = time.Now()
			} else if time.Since(idle) >= idleSpin {
				p.helpers--
				p.mu.Unlock()
				return
			}
			p.mu.Unlock()
			runtime.Gosched()
			for p.queued.Load() == 0 && time.Since(idle) < idleSpin {
				runtime.Gosched()
			}
			p.mu.Lock()
			continue
		}
		idle = time.Time{}
		j := p.queue[k]
		j.inflight.Add(1)
		i := p.take(j, false)
		p.mu.Unlock()
		j.timed(i)
		p.mu.Lock()
		j.inflight.Add(-1)
	}
}

// timed runs item i and adds its time to the round's.
func (j *Job) timed(i int) {
	start := time.Now()
	j.fn(i)
	j.busy.Add(int64(time.Since(start)))
}

// admits reports whether another helper may work j. Called with mu held.
func (j *Job) admits() bool { return int(j.inflight.Load()) < j.lanes-1 }

// RunNext runs the next unclaimed item of j's open round on the caller
// and reports whether there was one. The item is the caller's lane, not a
// helper's: it leaves every helper lane free.
func (j *Job) RunNext() bool { return j.claim(false) }

// claim runs j's next unclaimed item, or with skip drops every item left
// and reports false.
func (j *Job) claim(skip bool) bool {
	p := j.p
	if p == nil {
		return false
	}
	p.mu.Lock()
	if j.next >= j.n {
		p.mu.Unlock()
		return false
	}
	i := p.take(j, skip)
	p.mu.Unlock()
	if !skip {
		j.timed(i)
	}
	return !skip
}

// Join ends j's round: the caller runs what is unclaimed, in order, then
// spins until the helpers' items in flight are done. It returns the sum of
// the round's item times.
func (j *Job) Join() time.Duration { return j.end(false) }

// Stop ends j's round without running what is unclaimed.
func (j *Job) Stop() { j.end(true) }

func (j *Job) end(skip bool) time.Duration {
	for j.claim(skip) {
	}
	// At most one item per helper; the yield lets one on this P finish.
	for j.inflight.Load() > 0 {
		runtime.Gosched()
	}
	if p := j.p; p != nil {
		p.mu.Lock()
		j.n, j.next = 0, 0
		p.mu.Unlock()
	}
	return time.Duration(j.busy.Swap(0))
}
