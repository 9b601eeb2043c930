package experiments

import (
	"fidr/internal/chunk"
	"fidr/internal/core"
	"fidr/internal/hostmodel"
	"fidr/internal/metrics"
	"fidr/internal/trace"
)

// --- Figure 3: IO amplification of large chunking ---

// Fig3Row is one (trace, chunking) data point.
type Fig3Row struct {
	Trace         string
	ChunkKB       int
	Amplification float64
	DedupRatio    float64
}

// Fig3Result holds the figure's series plus the headline ratio.
type Fig3Result struct {
	Rows []Fig3Row
	// MaxIncrease is the worst 32-KB/4-KB IO ratio (paper: up to 17.5x).
	MaxIncrease float64
}

// Fig3 reproduces Figure 3: deduplication with 32-KB chunking on mail and
// webVM write skeletons (4-MB request buffer) versus 4-KB chunking.
func Fig3(sc Scale) (Fig3Result, *metrics.Table, error) {
	var res Fig3Result
	tab := metrics.NewTable("Figure 3: IO amplification of large chunking",
		"trace", "chunking", "device bytes / client byte", "dedup ratio", "IO increase vs 4KB")
	for _, sk := range []trace.SkeletonParams{trace.MailSkeleton(sc.IOs), trace.WebVMSkeleton(sc.IOs)} {
		writes := trace.GenerateSkeleton(sk)
		var amps [2]float64
		for i, ck := range []int{4096, 32768} {
			r, err := chunk.SimulateRMW(chunk.RMWConfig{
				BlockSize: 4096, ChunkSize: ck, BufferBytes: 4 << 20,
			}, writes)
			if err != nil {
				return res, nil, err
			}
			amps[i] = r.Amplification()
			res.Rows = append(res.Rows, Fig3Row{
				Trace: sk.Name, ChunkKB: ck / 1024,
				Amplification: r.Amplification(), DedupRatio: r.DedupRatio(),
			})
		}
		increase := amps[1] / amps[0]
		if increase > res.MaxIncrease {
			res.MaxIncrease = increase
		}
		for _, row := range res.Rows[len(res.Rows)-2:] {
			inc := ""
			if row.ChunkKB == 32 {
				inc = metrics.FormatFloat(increase) + "x"
			}
			tab.Row(row.Trace, metrics.FormatFloat(float64(row.ChunkKB))+" KB",
				row.Amplification, row.DedupRatio, inc)
		}
	}
	tab.Note("paper: up to 17.5x IO increase from read-modify-writes and dedup degradation")
	return res, tab, nil
}

// --- Figures 4 & 5 and Tables 1 & 2: baseline profiling ---

// ProfileResult carries a baseline profiling run's projections.
type ProfileResult struct {
	Workload     string
	MemPerByte   float64
	CPUNsPerByte float64
	// MemBWAt75 / CoresAt75 are the paper-style linear projections.
	MemBWAt75 float64
	CoresAt75 float64
	// MgmtFraction is the memory/IO-management share of CPU (Fig 5b).
	MgmtFraction float64
	Snapshot     hostmodel.Snapshot
}

// profiles runs the §3.2 profiling workloads on the baseline.
func (m *matrix) profiles() ([]ProfileResult, error) {
	var out []ProfileResult
	for _, wl := range []string{"Profiling-Write", "Profiling-Mixed"} {
		r, err := m.run(core.Baseline, wl, WithCacheFrac(profilingCacheFrac))
		if err != nil {
			return nil, err
		}
		out = append(out, ProfileResult{
			Workload:     wl,
			MemPerByte:   r.MemPerByte(),
			CPUNsPerByte: r.CPUNsPerByte(),
			MemBWAt75:    r.Snapshot.MemBWAt(TargetThroughput),
			CoresAt75:    r.Snapshot.CoresAt(TargetThroughput),
			MgmtFraction: r.Snapshot.ManagementCPUFraction(),
			Snapshot:     r.Snapshot,
		})
	}
	return out, nil
}

// Fig4 reproduces Figure 4: baseline host memory bandwidth, measured at
// 5 and 6.9 GB/s and projected linearly to the 75 GB/s target, against
// the socket's 170 GB/s ceiling.
func Fig4(sc Scale) ([]ProfileResult, *metrics.Table, error) { return newMatrix(sc).fig4() }

func (m *matrix) fig4() ([]ProfileResult, *metrics.Table, error) {
	profiles, err := m.profiles()
	if err != nil {
		return nil, nil, err
	}
	sock := hostmodel.PaperSocket()
	tab := metrics.NewTable("Figure 4: baseline memory-bandwidth demand (projected)",
		"workload", "@5 GB/s", "@6.9 GB/s", "@75 GB/s", "socket limit", "shortfall")
	for _, p := range profiles {
		tab.Row(p.Workload,
			metrics.GBps(p.MemPerByte*MeasurementPoints[0]),
			metrics.GBps(p.MemPerByte*MeasurementPoints[1]),
			metrics.GBps(p.MemBWAt75),
			metrics.GBps(sock.MemBW),
			metrics.FormatFloat(p.MemBWAt75/sock.MemBW)+"x")
	}
	tab.Note("paper: 317 GB/s (write-only) and 269 GB/s (mixed) at 75 GB/s vs 170 GB/s socket")
	return profiles, tab, nil
}

// Fig5 reproduces Figure 5: baseline CPU demand at 75 GB/s (a) and the
// management-overhead breakdown (b).
func Fig5(sc Scale) ([]ProfileResult, *metrics.Table, error) { return newMatrix(sc).fig5() }

func (m *matrix) fig5() ([]ProfileResult, *metrics.Table, error) {
	profiles, err := m.profiles()
	if err != nil {
		return nil, nil, err
	}
	tab := metrics.NewTable("Figure 5: baseline CPU demand (projected to 75 GB/s)",
		"workload", "cores needed", "socket cores", "mgmt overhead share")
	for _, p := range profiles {
		tab.Row(p.Workload, p.CoresAt75, 22, metrics.Pct(p.MgmtFraction))
	}
	tab.Note("paper: up to 67 cores; 85.2%% (write-only) / 50.8%% (mixed) is memory/scheduling management")
	return profiles, tab, nil
}

// Table1 reproduces Table 1: memory-bandwidth breakdown by datapath with
// memory-capacity classes.
func Table1(sc Scale) ([]ProfileResult, *metrics.Table, error) { return newMatrix(sc).table1() }

func (m *matrix) table1() ([]ProfileResult, *metrics.Table, error) {
	profiles, err := m.profiles()
	if err != nil {
		return nil, nil, err
	}
	capClass := map[hostmodel.Path]string{
		hostmodel.PathNICHost:    "KBs-MBs",
		hostmodel.PathPredictor:  "MBs",
		hostmodel.PathHostFPGA:   "MBs",
		hostmodel.PathTableCache: "10-100s GB",
		hostmodel.PathHostSSD:    "KBs-MBs",
	}
	paperWrite := map[hostmodel.Path]string{
		hostmodel.PathNICHost:    "23.6%",
		hostmodel.PathPredictor:  "23.7%",
		hostmodel.PathHostFPGA:   "25.4%",
		hostmodel.PathTableCache: "25.7%",
		hostmodel.PathHostSSD:    "1.7%",
	}
	tab := metrics.NewTable("Table 1: memory-BW breakdown of baseline datapaths",
		"data path", "mem BW (write-only)", "mem BW (mixed)", "paper (write-only)", "memory capacity")
	for _, p := range hostmodel.Paths() {
		tab.Row(p.String(),
			metrics.Pct(profiles[0].Snapshot.MemFraction(p)),
			metrics.Pct(profiles[1].Snapshot.MemFraction(p)),
			paperWrite[p],
			capClass[p])
	}
	return profiles, tab, nil
}

// Table2 reproduces Table 2: CPU and memory-capacity split of table-cache
// management components with their "best place to run".
func Table2(sc Scale) (*metrics.Table, error) { return newMatrix(sc).table2() }

func (m *matrix) table2() (*metrics.Table, error) {
	profiles, err := m.profiles()
	if err != nil {
		return nil, err
	}
	snap := profiles[0].Snapshot
	// Normalize within table-caching components, as the paper does.
	comps := []struct {
		c     hostmodel.Component
		mem   string
		best  string
		paper string
	}{
		{hostmodel.CompTreeIndex, "Below 3 GB (tree nodes)", "Accelerator", "43.9%"},
		{hostmodel.CompTableSSDIO, "KB-MBs (IO control queues)", "Accelerator", "24.7%"},
		{hostmodel.CompTableContent, "10-100s GB (cache content)", "Host", "6.3%"},
		{hostmodel.CompTableReplace, "MBs (LRU and free lists)", "Host or accelerator", "1.0%"},
	}
	var cacheTotal uint64
	for _, c := range comps {
		cacheTotal += snap.CPUNanos[c.c]
	}
	total := snap.TotalCPUNanos()
	tab := metrics.NewTable("Table 2: CPU split of table-cache management (write-only)",
		"component", "CPU util (of total)", "of table caching", "paper", "memory structure", "best place")
	for _, c := range comps {
		frac := 0.0
		if total > 0 {
			frac = float64(snap.CPUNanos[c.c]) / float64(total)
		}
		inner := 0.0
		if cacheTotal > 0 {
			inner = float64(snap.CPUNanos[c.c]) / float64(cacheTotal)
		}
		tab.Row(c.c.String(), metrics.Pct(frac), metrics.Pct(inner), c.paper, c.mem, c.best)
	}
	tab.Note("paper: 68.8%% of table-caching CPU goes to small data structures (tree + SSD stack)")
	return tab, nil
}
