package experiments

import (
	"fidr/internal/core"
	"fidr/internal/cost"
	"fidr/internal/hostmodel"
	"fidr/internal/metrics"
)

// costWorkloads derives the cost model's host intensities from the §7.8
// assumption (50% dedup, 50% compression) measured on both architectures.
func (m *matrix) costWorkloads() (fidrW, baseW cost.Workload, err error) {
	base, err := m.run(core.Baseline, "Profiling-Write", WithCacheFrac(profilingCacheFrac))
	if err != nil {
		return fidrW, baseW, err
	}
	fidr, err := m.run(core.FIDRFull, "Profiling-Write", WithCacheFrac(profilingCacheFrac))
	if err != nil {
		return fidrW, baseW, err
	}
	// Request handling (CompProtocol) is paid by any storage server,
	// reduction or not, so the cost model attributes only the
	// reduction-specific CPU.
	reductionCPU := func(r RunResult) float64 {
		if r.Snapshot.ClientBytes == 0 {
			return 0
		}
		ns := r.Snapshot.TotalCPUNanos() - r.Snapshot.CPUNanos[hostmodel.CompProtocol]
		return float64(ns) / float64(r.Snapshot.ClientBytes)
	}
	fidrW = cost.Workload{DedupRatio: 0.5, CompRatio: 0.5,
		CPUNsPerByte: reductionCPU(fidr), MemPerByte: fidr.MemPerByte()}
	baseW = cost.Workload{DedupRatio: 0.5, CompRatio: 0.5,
		CPUNsPerByte: reductionCPU(base), MemPerByte: base.MemPerByte()}
	return fidrW, baseW, nil
}

// Fig15Row is one (throughput, capacity) cost point.
type Fig15Row struct {
	GBps       float64
	CapacityTB float64
	// Cost is normalized to the no-reduction server (lower is better,
	// matching the figure's y-axis).
	FIDRNormCost     float64
	BaselineNormCost float64
	FIDRSaving       float64
}

// Fig15 reproduces Figure 15: normalized storage cost versus throughput
// at three effective capacities.
func Fig15(sc Scale) ([]Fig15Row, *metrics.Table, error) { return newMatrix(sc).fig15() }

func (m *matrix) fig15() ([]Fig15Row, *metrics.Table, error) {
	fidrW, baseW, err := m.costWorkloads()
	if err != nil {
		return nil, nil, err
	}
	model := cost.NewModel()
	var rows []Fig15Row
	tab := metrics.NewTable("Figure 15: normalized storage cost vs throughput (lower is better)",
		"capacity", "throughput", "FIDR cost", "baseline cost", "no-reduction", "FIDR saving")
	for _, capTB := range []float64{100, 250, 500} {
		capacity := capTB * 1e12
		for _, gbps := range []float64{25, 50, 75} {
			bps := gbps * 1e9
			f := model.FIDR(capacity, bps, fidrW)
			b := model.Baseline(capacity, bps, baseW)
			raw := model.NoReduction(capacity).Total()
			row := Fig15Row{
				GBps: gbps, CapacityTB: capTB,
				FIDRNormCost:     f.Total() / raw,
				BaselineNormCost: b.Total() / raw,
				FIDRSaving:       model.Saving(f, capacity),
			}
			rows = append(rows, row)
			tab.Row(metrics.FormatFloat(capTB)+" TB", metrics.GBps(bps),
				metrics.FormatFloat(row.FIDRNormCost),
				metrics.FormatFloat(row.BaselineNormCost),
				"1.0", metrics.Pct(row.FIDRSaving))
		}
	}
	tab.Note("paper: at 500 TB, FIDR saving moves from 67%% (25 GB/s) to 58%% (75 GB/s); baseline falls to partial reduction beyond ~25 GB/s")
	return rows, tab, nil
}

// Fig16Result is the 75 GB/s, 500 TB cost breakdown.
type Fig16Result struct {
	FIDR, Baseline cost.Breakdown
	NoReduction    float64
}

// Fig16 reproduces Figure 16: cost breakdown at 75 GB/s and 500 TB
// effective capacity.
func Fig16(sc Scale) (Fig16Result, *metrics.Table, error) { return newMatrix(sc).fig16() }

func (m *matrix) fig16() (Fig16Result, *metrics.Table, error) {
	fidrW, baseW, err := m.costWorkloads()
	if err != nil {
		return Fig16Result{}, nil, err
	}
	model := cost.NewModel()
	const capacity = 500e12
	const bps = 75e9
	res := Fig16Result{
		FIDR:        model.FIDR(capacity, bps, fidrW),
		Baseline:    model.Baseline(capacity, bps, baseW),
		NoReduction: model.NoReduction(capacity).Total(),
	}
	tab := metrics.NewTable("Figure 16: cost breakdown at 75 GB/s, 500 TB effective",
		"component", "FIDR ($K)", "baseline ($K)")
	k := func(v float64) float64 { return v / 1000 }
	tab.Row("data SSDs", k(res.FIDR.DataSSD), k(res.Baseline.DataSSD))
	tab.Row("table SSDs", k(res.FIDR.TableSSD), k(res.Baseline.TableSSD))
	tab.Row("DRAM", k(res.FIDR.DRAM), k(res.Baseline.DRAM))
	tab.Row("CPU", k(res.FIDR.CPU), k(res.Baseline.CPU))
	tab.Row("FPGAs", k(res.FIDR.FPGA), k(res.Baseline.FPGA))
	tab.Row("total", k(res.FIDR.Total()), k(res.Baseline.Total()))
	tab.Note("no-reduction server: $%.0fK; baseline must do partial reduction at this rate", res.NoReduction/1000)
	return res, tab, nil
}
