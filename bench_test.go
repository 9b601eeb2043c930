package fidr_test

// One benchmark per paper artifact: each bench regenerates its table or
// figure end-to-end (workload synthesis, functional servers, projection
// models) and reports the derived headline metric alongside wall time.
// Run with:
//
//	go test -bench=. -benchmem
//
// The underlying tables are printable with cmd/fidrbench.

import (
	"testing"

	"fidr/internal/experiments"
)

// benchScale keeps per-iteration work moderate; headline ratios are
// scale-invariant (see internal/experiments).
func benchScale() experiments.Scale { return experiments.Scale{IOs: 20000} }

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxIncrease, "io-increase-x")
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		profiles, _, err := experiments.Fig4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(profiles[0].MemBWAt75/1e9, "GBps-mem-at-75")
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		profiles, _, err := experiments.Fig5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(profiles[0].CoresAt75, "cores-at-75")
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		profiles, _, err := experiments.Table1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(profiles[0].MemPerByte, "mem-bytes-per-byte")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MeasuredHit, "writeH-hit-rate")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig11(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.Reduction > best {
				best = r.Reduction
			}
		}
		b.ReportMetric(best*100, "best-memBW-reduction-%")
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.TotalReduction > best {
				best = r.TotalReduction
			}
		}
		b.ReportMetric(best*100, "best-CPU-reduction-%")
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig13(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Workload == "Write-M" && r.Width == 4 {
				b.ReportMetric(r.GBps, "writeM-w4-GBps")
			}
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig14(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, r := range rows {
			if r.Speedup > best {
				best = r.Speedup
			}
		}
		b.ReportMetric(best, "best-speedup-x")
	}
}

func BenchmarkLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Latency()
		b.ReportMetric(float64(res.FIDRRead.Microseconds()), "fidr-read-us")
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table4()
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].EstMaxGBps, "medium-tree-GBps")
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig15(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].FIDRSaving*100, "saving-500TB-75GBps-%")
	}
}

func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Fig16(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Baseline.Total()/res.FIDR.Total(), "baseline-vs-fidr-cost-x")
	}
}

func BenchmarkLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Lifetime(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].LifetimeX, "writeH-lifetime-x")
	}
}

func BenchmarkAblationWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.AblationWidth(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].GBps, "width16-GBps")
	}
}
