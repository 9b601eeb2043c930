package lanes

import (
	"sync/atomic"
	"testing"
)

var raceEnabled bool // set by race_test.go under -race

func TestNormalizeAndClamp(t *testing.T) {
	if Normalize(0) != Default() || Normalize(-3) != Default() {
		t.Fatal("zero/negative lanes must select the default")
	}
	if Normalize(5) != 5 {
		t.Fatal("explicit lane count not honored")
	}
	if got := Clamp(8, 3); got != 3 {
		t.Fatalf("Clamp(8,3) = %d", got)
	}
	if got := Clamp(2, 100); got != 2 {
		t.Fatalf("Clamp(2,100) = %d", got)
	}
	if got := Clamp(4, 0); got != 1 {
		t.Fatalf("Clamp(4,0) = %d", got)
	}
	if Default() < 1 {
		t.Fatal("default lane count < 1")
	}
}

func TestRunCoversEveryItemExactlyOnce(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 100} {
		const n = 57
		var hits [n]int32
		busy := Run(n, k, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("k=%d: item %d ran %d times", k, i, h)
			}
		}
		wantLanes := k
		if wantLanes > n {
			wantLanes = n
		}
		if len(busy) != wantLanes {
			t.Fatalf("k=%d: %d busy entries", k, len(busy))
		}
	}
}

func TestRunDeterministicLaneAssignment(t *testing.T) {
	const n, k = 40, 4
	lane := make([]int32, n)
	Run(n, k, func(l, i int) { atomic.StoreInt32(&lane[i], int32(l)) })
	for i := 0; i < n; i++ {
		if int(lane[i]) != i%k {
			t.Fatalf("item %d ran on lane %d, want %d", i, lane[i], i%k)
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	if got := Run(0, 4, func(_, _ int) { t.Fatal("fn called for n=0") }); got != nil {
		t.Fatal("n=0 should return nil busy slice")
	}
	ran := 0
	busy := Run(1, 8, func(l, i int) {
		if l != 0 || i != 0 {
			t.Fatalf("single item on lane %d item %d", l, i)
		}
		ran++
	})
	if ran != 1 || len(busy) != 1 {
		t.Fatalf("single-item run: ran=%d busy=%d", ran, len(busy))
	}
	if Total(busy) < 0 {
		t.Fatal("negative busy total")
	}
}

// TestGroupRunReusable: a held group's rounds are the package Run's —
// same item -> lane assignment, same results, a busy time per lane — and
// the group is reusable round after round, at any width, without
// allocating once it has run at that width.
func TestGroupRunReusable(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 7, 64} {
			wantLane := make([]int32, n)
			wantOut := make([]int64, n)
			wantBusy := Run(n, k, func(l, i int) {
				atomic.StoreInt32(&wantLane[i], int32(l))
				atomic.StoreInt64(&wantOut[i], int64(i*i+1))
			})

			round := int64(0)
			lane := make([]int32, n)
			out := make([]int64, n)
			g := NewGroup(func(l, i int) {
				atomic.StoreInt32(&lane[i], int32(l))
				atomic.AddInt64(&out[i], int64(i*i+1)+atomic.LoadInt64(&round))
			})
			for r := 0; r < 1000; r++ {
				atomic.StoreInt64(&round, int64(r))
				for i := range out {
					atomic.StoreInt64(&out[i], 0)
					atomic.StoreInt32(&lane[i], -1)
				}
				busy := g.Run(n, k)
				if len(busy) != len(wantBusy) {
					t.Fatalf("k=%d n=%d round %d: %d busy entries, Run has %d", k, n, r, len(busy), len(wantBusy))
				}
				for i := range out {
					if lane[i] != wantLane[i] || out[i] != wantOut[i]+int64(r) {
						t.Fatalf("k=%d n=%d round %d: item %d ran on lane %d with result %d, want lane %d and %d",
							k, n, r, i, lane[i], out[i], wantLane[i], wantOut[i]+int64(r))
					}
				}
			}
			if raceEnabled {
				continue
			}
			if a := testing.AllocsPerRun(50, func() { g.Run(n, k) }); a != 0 {
				t.Errorf("k=%d n=%d: %v allocs per warmed round, want 0", k, n, a)
			}
		}
	}
}
