package lanes

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

var raceEnabled bool // set by race_test.go under -race

func TestNormalize(t *testing.T) {
	if Normalize(0) != Default() || Normalize(-3) != Default() {
		t.Fatal("zero/negative lanes must select the default")
	}
	if Normalize(5) != 5 {
		t.Fatal("explicit lane count not honored")
	}
	if Default() < 1 {
		t.Fatal("default lane count < 1")
	}
}

// run is one round of n items on p: Post, then Join. The caller takes the
// first item at once, so a helper starts only for a second.
func run(p *Pool, j *Job, n, lanes int) time.Duration {
	p.Post(j, n, lanes, 2)
	return j.Join()
}

func TestRunCoversEveryItemExactlyOnce(t *testing.T) {
	p := NewPool()
	for _, k := range []int{1, 2, 3, 8, 100} {
		const n = 57
		var hits [n]int32
		j := NewJob(Waited, func(i int) { atomic.AddInt32(&hits[i], 1) })
		if busy := run(p, j, n, k); busy < 0 {
			t.Fatalf("k=%d: negative busy time %v", k, busy)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("k=%d: item %d ran %d times", k, i, h)
			}
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	p := NewPool()
	if got := run(p, NewJob(Waited, func(int) { t.Fatal("fn called for n=0") }), 0, 4); got != 0 {
		t.Fatalf("n=0 reported %v busy", got)
	}
	ran := 0
	run(p, NewJob(Waited, func(i int) {
		if i != 0 {
			t.Fatalf("single-item round ran item %d", i)
		}
		ran++
	}), 1, 8)
	if ran != 1 {
		t.Fatalf("single-item round ran %d times", ran)
	}
	// The caller takes a lone item itself: no helper was started for it.
	p.mu.Lock()
	helpers := p.helpers
	p.mu.Unlock()
	if helpers != 0 {
		t.Fatalf("single-item round started %d helpers", helpers)
	}
}

// TestPoolCoversEveryItemOnce: on one pool, an Ahead job posted an item
// at a time (as the NIC posts chunks while a buffer fills) and a Waited
// job run whole while the Ahead one is open each run every item exactly
// once, whichever goroutine claims it. A stopped round runs no item after
// Stop returns. Run it under -race: helpers write per-item slots the
// caller reads after the join.
func TestPoolCoversEveryItemOnce(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		p := NewPool()
		const n = 64
		var ahead, waited [n]int32
		var aheadOut, waitedOut [n]int
		a := NewJob(Ahead, func(i int) {
			atomic.AddInt32(&ahead[i], 1)
			aheadOut[i] = i*i + 1
		})
		w := NewJob(Waited, func(i int) {
			atomic.AddInt32(&waited[i], 1)
			waitedOut[i] = 3*i + 1
		})
		for round := 0; round < 200; round++ {
			clear(ahead[:])
			clear(waited[:])
			for m := 1; m <= n; m++ {
				p.Post(a, m, k, 1)
				if m == n/2 {
					run(p, w, n, k)
					for i := range waited {
						if waited[i] != 1 || waitedOut[i] != 3*i+1 {
							t.Fatalf("k=%d round %d: waited item %d ran %d times, result %d", k, round, i, waited[i], waitedOut[i])
						}
					}
				}
			}
			if round%4 == 3 {
				a.Stop()
				var after [n]int32
				for i := range ahead {
					after[i] = atomic.LoadInt32(&ahead[i])
					if after[i] > 1 {
						t.Fatalf("k=%d round %d: stopped item %d ran %d times", k, round, i, after[i])
					}
				}
				// Give any helper that survived Stop the chance to run.
				run(p, w, n, k)
				for i := range ahead {
					if got := atomic.LoadInt32(&ahead[i]); got != after[i] {
						t.Fatalf("k=%d round %d: item %d ran after Stop returned", k, round, i)
					}
				}
				continue
			}
			a.Join()
			for i := range ahead {
				if ahead[i] != 1 || aheadOut[i] != i*i+1 {
					t.Fatalf("k=%d round %d: ahead item %d ran %d times, result %d", k, round, i, ahead[i], aheadOut[i])
				}
			}
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(50, func() { run(p, w, n, k) }); allocs != 0 {
			t.Errorf("k=%d: %v allocs per warmed round, want 0", k, allocs)
		}
	}
}

// TestRunNextLeavesHelperLanes: an item the caller runs with RunNext is
// the caller's lane, not a helper's. At two lanes the one helper must be
// admitted while the caller runs an item: each item waits until the other
// has started, so a caller's item counted as a helper's would keep the
// helper out and both would wait. No clock bounds the test but a deadline
// that only bounds how long a hang takes to report.
func TestRunNextLeavesHelperLanes(t *testing.T) {
	p := NewPool()
	for round := 0; round < 50; round++ {
		var started [2]atomic.Bool
		j := NewJob(Ahead, func(i int) {
			started[i].Store(true)
			for deadline := time.Now().Add(10 * time.Second); !started[1-i].Load(); runtime.Gosched() {
				if time.Now().After(deadline) {
					return
				}
			}
		})
		p.Post(j, 2, 2, 1)
		ran := 0
		for j.RunNext() {
			ran++
		}
		j.Join()
		if ran != 1 || !started[0].Load() || !started[1].Load() {
			t.Fatalf("round %d: the caller ran %d items; both running at once: %v", round, ran, started[0].Load() && started[1].Load())
		}
	}
}

// TestJoinOnOneP: with a single P, a caller spinning in Join on an item a
// helper claimed must let that helper finish it. Every item yields, so
// helpers claim items and are descheduled holding them while the caller
// reaches its join; a livelocked join would hang the test.
func TestJoinOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := NewPool()
	const n, k = 32, 4
	var hits [n]int32
	j := NewJob(Waited, func(i int) {
		atomic.AddInt32(&hits[i], 1)
		runtime.Gosched()
	})
	for round := 0; round < 500; round++ {
		clear(hits[:])
		p.Post(j, n, k, 1)
		runtime.Gosched() // let the helpers claim first
		j.Join()
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("round %d: item %d ran %d times", round, i, h)
			}
		}
	}
}
