package experiments

import (
	"fidr/internal/core"
	"fidr/internal/metrics"
)

// Scorecard runs the headline experiments and prints a one-page
// paper-vs-measured summary — the compressed version of EXPERIMENTS.md,
// regenerated live. The figures read one run matrix, so each server
// configuration runs once.
func Scorecard(sc Scale) (*metrics.Table, error) { return newMatrix(sc).scorecard() }

func (m *matrix) scorecard() (*metrics.Table, error) {
	sc := m.sc
	tab := metrics.NewTable("Reproduction scorecard (paper vs measured)",
		"claim", "paper", "measured")

	f3, _, err := Fig3(sc)
	if err != nil {
		return nil, err
	}
	tab.Row("Fig 3: worst 32-KB/4-KB IO increase", "17.5x",
		metrics.FormatFloat(f3.MaxIncrease)+"x")

	profiles, _, err := m.fig4()
	if err != nil {
		return nil, err
	}
	tab.Row("Fig 4: baseline mem BW @75 GB/s (write-only)", "317 GB/s",
		metrics.GBps(profiles[0].MemBWAt75))
	tab.Row("Fig 5: baseline cores @75 GB/s (write-only)", "67",
		metrics.FormatFloat(profiles[0].CoresAt75))
	tab.Row("Fig 5b: management share (write-only)", "85.2%",
		metrics.Pct(profiles[0].MgmtFraction))

	t3, _, err := m.table3()
	if err != nil {
		return nil, err
	}
	tab.Row("Table 3: Write-H dedup / hit rate", "88% / 90%",
		metrics.Pct(t3[0].MeasuredDedup)+" / "+metrics.Pct(t3[0].MeasuredHit))

	f11, _, err := m.fig11()
	if err != nil {
		return nil, err
	}
	bestMem, mixedMem := bestAndMixed(f11, func(r Fig11Row) (string, float64) { return r.Workload, r.Reduction })
	tab.Row("Fig 11: mem-BW cut (best write-only / mixed)", "79.1% / 84.9%",
		metrics.Pct(bestMem)+" / "+metrics.Pct(mixedMem))

	f12, _, err := m.fig12()
	if err != nil {
		return nil, err
	}
	bestCPU, mixedCPU := bestAndMixed(f12, func(r Fig12Row) (string, float64) { return r.Workload, r.TotalReduction })
	tab.Row("Fig 12: CPU cut (best write-only / mixed)", "68% / 39%",
		metrics.Pct(bestCPU)+" / "+metrics.Pct(mixedCPU))

	f13, _, err := m.fig13()
	if err != nil {
		return nil, err
	}
	var m1, m4 float64
	for _, r := range f13 {
		if r.Workload == "Write-M" && r.Width == 1 {
			m1 = r.GBps
		}
		if r.Workload == "Write-M" && r.Width == 4 {
			m4 = r.GBps
		}
	}
	tab.Row("Fig 13: Write-M 1->4 updates", "27.1 -> 63.8 GB/s",
		metrics.FormatFloat(m1)+" -> "+metrics.FormatFloat(m4)+" GB/s")

	f14, _, err := m.fig14()
	if err != nil {
		return nil, err
	}
	bestSpeed, mixedSpeed := bestAndMixed(f14, func(r Fig14Row) (string, float64) { return r.Workload, r.Speedup })
	tab.Row("Fig 14: speedup (best write-only / mixed)", "3.3x / 1.7x",
		metrics.FormatFloat(bestSpeed)+"x / "+metrics.FormatFloat(mixedSpeed)+"x")

	lat, _ := Latency()
	tab.Row("7.6: read latency baseline -> FIDR", "700us -> 490us",
		lat.BaselineRead.String()+" -> "+lat.FIDRRead.String())

	f15, _, err := m.fig15()
	if err != nil {
		return nil, err
	}
	var s25, s75 float64
	for _, r := range f15 {
		if r.CapacityTB == 500 && r.GBps == 25 {
			s25 = r.FIDRSaving
		}
		if r.CapacityTB == 500 && r.GBps == 75 {
			s75 = r.FIDRSaving
		}
	}
	tab.Row("Fig 15: cost saving @500 TB, 25 -> 75 GB/s", "67% -> 58%",
		metrics.Pct(s25)+" -> "+metrics.Pct(s75))

	tab.Note("workload scale: %d IOs per run; architectures: %v/%v/%v",
		sc.IOs, core.Baseline, core.FIDRNicP2P, core.FIDRFull)
	return tab, nil
}

// bestAndMixed returns the largest write-only value of a per-workload
// figure and Read-Mixed's.
func bestAndMixed[R any](rows []R, value func(R) (string, float64)) (best, mixed float64) {
	for _, r := range rows {
		if name, v := value(r); name == "Read-Mixed" {
			mixed = v
		} else if v > best {
			best = v
		}
	}
	return best, mixed
}
