package hwtree

import (
	"math"
	"testing"
)

// Workload anchor points used by the Figure 13 reproduction: miss rates
// come from Table 3 hit rates; leaf-cache hits are the calibrated values
// (high-locality Write-H reuses leaves).
func writeH() WorkloadPoint {
	return WorkloadPoint{MissRate: 0.10, CrashRate: 0.001, LeafCacheHit: 0.40}
}
func writeM() WorkloadPoint {
	return WorkloadPoint{MissRate: 0.19, CrashRate: 0.001, LeafCacheHit: 0.0}
}
func writeL() WorkloadPoint {
	return WorkloadPoint{MissRate: 0.55, CrashRate: 0.001, LeafCacheHit: 0.0}
}

func TestPerfValidation(t *testing.T) {
	var p PerfParams
	if _, _, err := p.Throughput(writeM(), 1); err == nil {
		t.Fatal("zero params accepted")
	}
	if _, _, err := MediumTreeParams().Throughput(writeM(), 0); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestSingleUpdateAnchors(t *testing.T) {
	p := MediumTreeParams()
	// Write-M single-update: paper measures 27.1 GB/s.
	gbps, caps, err := p.Throughput(writeM(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g := gbps / 1e9; g < 22 || g > 33 {
		t.Fatalf("Write-M single-update = %.1f GB/s, paper 27.1", g)
	}
	if caps.Update >= caps.DRAMPort {
		t.Error("single-update should be update-limited for Write-M")
	}
	// Write-H single-update: paper reports ~54 GB/s.
	gbps, _, _ = p.Throughput(writeH(), 1)
	if g := gbps / 1e9; g < 45 || g > 65 {
		t.Fatalf("Write-H single-update = %.1f GB/s, paper ~54", g)
	}
}

func TestMultiUpdateScaling(t *testing.T) {
	p := MediumTreeParams()
	for _, wl := range []WorkloadPoint{writeH(), writeM(), writeL()} {
		prev := 0.0
		for _, w := range []int{1, 2, 4} {
			gbps, _, err := p.Throughput(wl, w)
			if err != nil {
				t.Fatal(err)
			}
			if gbps < prev {
				t.Fatalf("throughput decreased with width %d", w)
			}
			prev = gbps
		}
	}
	// Write-M must scale from ~27 to the 60s (paper: 27.1 -> 63.8).
	g1, _, _ := p.Throughput(writeM(), 1)
	g4, _, _ := p.Throughput(writeM(), 4)
	if ratio := g4 / g1; ratio < 1.8 || ratio > 3.0 {
		t.Fatalf("Write-M W=4/W=1 ratio = %.2f, paper ~2.35", ratio)
	}
	if g := g4 / 1e9; g < 55 || g > 80 {
		t.Fatalf("Write-M at W=4 = %.1f GB/s, paper 63.8", g)
	}
}

func TestWriteHSaturatesDRAM(t *testing.T) {
	p := MediumTreeParams()
	_, caps, _ := p.Throughput(writeH(), 4)
	if caps.DRAMPort > caps.Update || caps.DRAMPort > caps.Clock {
		t.Error("Write-H at W=4 should be DRAM-port limited")
	}
	gbps, _, _ := p.Throughput(writeH(), 4)
	if g := gbps / 1e9; g < 100 || g > 140 {
		t.Fatalf("Write-H saturation = %.1f GB/s, paper ~127", g)
	}
}

func TestTableSSDDominates(t *testing.T) {
	// Table 5 "All": with 2 GB/s of table SSDs, Write-M caps at ~10 GB/s.
	p := MediumTreeParams().WithTableSSD(2e9)
	gbps, caps, err := p.Throughput(writeM(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if g := gbps / 1e9; g < 8 || g > 13 {
		t.Fatalf("with table SSD = %.1f GB/s, paper 10", g)
	}
	if !math.IsInf(caps.TableSSD, 1) && caps.TableSSD > caps.DRAMPort {
		t.Error("table SSD should be the binding constraint")
	}
}

func TestLargeTreeSlower(t *testing.T) {
	// Table 5: medium tree 80 GB/s vs large tree 64 GB/s (Write-M, W=4).
	med, _, _ := MediumTreeParams().Throughput(writeM(), 4)
	large, _, _ := LargeTreeParams().Throughput(writeM(), 4)
	if large >= med {
		t.Fatalf("large tree (%.1f) not slower than medium (%.1f)", large/1e9, med/1e9)
	}
	if ratio := large / med; ratio < 0.7 || ratio > 0.95 {
		t.Fatalf("large/medium = %.2f, paper 64/80 = 0.8", ratio)
	}
}

func TestUpdateLatencyComponents(t *testing.T) {
	p := MediumTreeParams()
	lat := p.UpdateLatency()
	// Must exceed two DRAM accesses and grow with height.
	if lat < 2*(p.DRAMLatencyNs*1e-9) {
		t.Error("latency below DRAM floor")
	}
	p2 := p
	p2.Height = 14
	if p2.UpdateLatency() <= lat {
		t.Error("latency not increasing with height")
	}
}

func TestZeroMissNoUpdateCap(t *testing.T) {
	p := MediumTreeParams()
	caps, err := p.OpsPerSecond(WorkloadPoint{MissRate: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(caps.Update, 1) {
		t.Error("no misses should mean unbounded update cap")
	}
	if !math.IsInf(caps.TableSSD, 1) {
		t.Error("no SSD path should be unbounded")
	}
}

func TestHeightFor(t *testing.T) {
	// Paper anchors: 410 MB cache -> 9 levels; ~100 GB -> 14 levels.
	if h := HeightFor(MediumCacheLines); h != 9 {
		t.Errorf("medium height = %d, paper 9", h)
	}
	if h := HeightFor(LargeCacheLines); h != 14 {
		t.Errorf("large height = %d, paper 14", h)
	}
	if h := HeightFor(1); h != 1 {
		t.Errorf("tiny height = %d", h)
	}
}

func TestCacheEngineResourcesMatchTable5(t *testing.T) {
	within := func(got, want, tolPct int) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d*100 <= want*tolPct
	}
	// Column 1: full engine, medium tree, with table SSD controllers.
	all := CacheEngineResources(EngineConfig{CacheLines: MediumCacheLines, WithTableSSD: true})
	if !within(all.LUTs, 320000, 5) || !within(all.FFs, 160000, 8) || !within(all.BRAMs, 218, 12) {
		t.Errorf("All config = %+v, paper 320K/160K/218", all)
	}
	// Column 2: medium tree, no SSD.
	med := CacheEngineResources(EngineConfig{CacheLines: MediumCacheLines})
	if !within(med.LUTs, 316000, 5) || !within(med.FFs, 154000, 8) || !within(med.BRAMs, 202, 12) {
		t.Errorf("Medium config = %+v, paper 316K/154K/202", med)
	}
	if med.URAMs != 0 {
		t.Errorf("medium tree uses %d URAM, paper uses none", med.URAMs)
	}
	// Column 3: large tree.
	large := CacheEngineResources(EngineConfig{CacheLines: LargeCacheLines})
	if !within(large.LUTs, 348000, 5) || !within(large.FFs, 137000, 10) {
		t.Errorf("Large config = %+v, paper 348K/137K", large)
	}
	if !within(large.BRAMs, 390, 15) || !within(large.URAMs, 756, 15) {
		t.Errorf("Large memories = %+v, paper 390 BRAM / 756 URAM", large)
	}
	// Utilization sanity against VCU1525 capacity.
	lut, _, _, uram := large.Utilization(VCU1525)
	if lut < 0.25 || lut > 0.35 {
		t.Errorf("large LUT util = %.3f, paper 29.4%%", lut)
	}
	if uram < 0.65 || uram > 0.9 {
		t.Errorf("large URAM util = %.3f, paper 78.8%%", uram)
	}
}

func TestResourcesAdd(t *testing.T) {
	a := Resources{1, 2, 3, 4}
	b := Resources{10, 20, 30, 40}
	if got := a.Add(b); got != (Resources{11, 22, 33, 44}) {
		t.Errorf("Add = %+v", got)
	}
}
