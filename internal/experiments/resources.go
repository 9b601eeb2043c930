package experiments

import (
	"fidr/internal/core"
	"fidr/internal/hwtree"
	"fidr/internal/metrics"
	"fidr/internal/nic"
)

// --- Table 4: FIDR NIC resource utilization ---

// Table4 reproduces Table 4: FPGA resources of the FIDR NIC for the
// write-only and mixed workloads.
func Table4() *metrics.Table {
	tab := metrics.NewTable("Table 4: FIDR custom NIC resource utilization",
		"workload", "block", "LUTs", "flip flops", "BRAMs", "LUT %", "BRAM %")
	dev := hwtree.VCU1525
	for _, w := range []struct {
		name     string
		fraction float64
	}{{"Write-only", 1.0}, {"Mixed 50r/50w", 0.5}} {
		support := nic.SupportResources(w.fraction)
		total := nic.TotalResources(w.fraction)
		for _, row := range []struct {
			block string
			r     hwtree.Resources
		}{
			{"Data reduction support", support},
			{"Basic NIC + TCP offload", nic.BasicNIC},
			{"Total", total},
		} {
			lut, _, bram, _ := row.r.Utilization(dev)
			tab.Row(w.name, row.block, row.r.LUTs, row.r.FFs, row.r.BRAMs,
				metrics.Pct(lut), metrics.Pct(bram))
		}
	}
	tab.Note("paper totals: 290K LUTs / 1119 BRAM (write-only), 249K / 1099 (mixed)")
	return tab
}

// --- Table 5: Cache HW-Engine resources and estimated throughput ---

// Table5Row is one engine configuration.
type Table5Row struct {
	Config    string
	Resources hwtree.Resources
	// EstMaxGBps is the modeled Write-M maximum at width 4.
	EstMaxGBps float64
}

// Table5 reproduces Table 5: three Cache HW-Engine builds with their
// resources and estimated Write-M throughput.
func Table5(sc Scale) ([]Table5Row, *metrics.Table, error) { return newMatrix(sc).table5() }

func (m *matrix) table5() ([]Table5Row, *metrics.Table, error) {
	// Measure Write-M's workload point functionally.
	r, err := m.run(core.FIDRFull, "Write-M")
	if err != nil {
		return nil, nil, err
	}
	configs := []struct {
		name  string
		eng   hwtree.EngineConfig
		perf  hwtree.PerfParams
		paper string
	}{
		{"All (with table SSD access)",
			hwtree.EngineConfig{CacheLines: hwtree.MediumCacheLines, WithTableSSD: true},
			hwtree.MediumTreeParams().WithTableSSD(2e9), "10 GB/s"},
		{"Except table SSD / medium tree (410 MB)",
			hwtree.EngineConfig{CacheLines: hwtree.MediumCacheLines},
			hwtree.MediumTreeParams(), "80 GB/s"},
		{"Except table SSD / large tree (~100 GB)",
			hwtree.EngineConfig{CacheLines: hwtree.LargeCacheLines},
			hwtree.LargeTreeParams(), "64 GB/s"},
	}
	var rows []Table5Row
	tab := metrics.NewTable("Table 5: Cache HW-Engine resources and estimated max throughput (Write-M)",
		"config", "levels", "LUTs", "FFs", "BRAM", "URAM", "est. max", "paper")
	var e engineRun
	for _, c := range configs {
		res := hwtree.CacheEngineResources(c.eng)
		if e, err = m.engine(c.perf, r, 4); err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table5Row{Config: c.name, Resources: res, EstMaxGBps: e.Bps / 1e9})
		tab.Row(c.name, hwtree.HeightFor(c.eng.CacheLines), res.LUTs, res.FFs,
			res.BRAMs, res.URAMs, metrics.GBps(e.Bps), c.paper)
	}
	tab.Note("measured Write-M point: miss %.1f%%, crash %.3f%%, leaf$ hit %.1f%%",
		100*e.MissRate, 100*e.CrashRate, 100*e.LeafCacheHit)
	return rows, tab, nil
}
