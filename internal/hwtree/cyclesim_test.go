package hwtree

import (
	"testing"
)

// TestCycleSimMatchesModel cross-validates the analytic per-resource
// model (perf.go) against the cycle-level replay for the Figure 13
// operating points. The two must agree within 20% — they share
// parameters but derive throughput by entirely different means.
func TestCycleSimMatchesModel(t *testing.T) {
	p := MediumTreeParams()
	cases := []struct {
		name  string
		wl    WorkloadPoint
		width int
	}{
		{"Write-M w1", WorkloadPoint{MissRate: 0.19, CrashRate: 0.001}, 1},
		{"Write-M w4", WorkloadPoint{MissRate: 0.19, CrashRate: 0.001}, 4},
		{"Write-H w4", WorkloadPoint{MissRate: 0.10, CrashRate: 0.001, LeafCacheHit: 0.40}, 4},
		{"Write-L w4", WorkloadPoint{MissRate: 0.55, CrashRate: 0.001}, 4},
	}
	for _, c := range cases {
		analytic, _, err := p.Throughput(c.wl, c.width)
		if err != nil {
			t.Fatal(err)
		}
		sim := NewCycleSim(p, c.wl, c.width, 42).Run(200000)
		ratio := sim.Throughput / analytic
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: cycle sim %.1f GB/s vs analytic %.1f GB/s (ratio %.2f)",
				c.name, sim.Throughput/1e9, analytic/1e9, ratio)
		}
		if sim.OpsDone != 200000 {
			t.Errorf("%s: %d ops done", c.name, sim.OpsDone)
		}
	}
}

func TestCycleSimUpdatesScaleWithWidth(t *testing.T) {
	p := MediumTreeParams()
	wl := WorkloadPoint{MissRate: 0.19, CrashRate: 0.001}
	t1 := NewCycleSim(p, wl, 1, 7).Run(100000).Throughput
	t4 := NewCycleSim(p, wl, 4, 7).Run(100000).Throughput
	if t4 < 1.5*t1 {
		t.Fatalf("width 4 (%.1f GB/s) not well above width 1 (%.1f GB/s)", t4/1e9, t1/1e9)
	}
}

func TestCycleSimCrashesReplay(t *testing.T) {
	p := MediumTreeParams()
	wl := WorkloadPoint{MissRate: 0.5, CrashRate: 0.2}
	res := NewCycleSim(p, wl, 4, 3).Run(20000)
	if res.Crashes == 0 {
		t.Fatal("no crashes at 20% crash rate")
	}
	// Replays inflate the update count beyond 2*misses.
	if res.UpdatesDone <= uint64(float64(res.OpsDone)*2*wl.MissRate) {
		t.Fatal("replayed updates not executed")
	}
}

func TestCycleSimDRAMBusyBounded(t *testing.T) {
	p := MediumTreeParams()
	res := NewCycleSim(p, WorkloadPoint{MissRate: 0.19}, 4, 1).Run(50000)
	if res.DRAMBusyFrac <= 0 || res.DRAMBusyFrac > 1.0001 {
		t.Fatalf("DRAM busy fraction %.3f out of range", res.DRAMBusyFrac)
	}
}
