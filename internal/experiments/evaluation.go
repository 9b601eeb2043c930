package experiments

import (
	"time"

	"fidr/internal/core"
	"fidr/internal/hostmodel"
	"fidr/internal/hwtree"
	"fidr/internal/metrics"
)

// EvalWorkloads are the Table 3 workload names.
func EvalWorkloads() []string {
	return []string{"Write-H", "Write-M", "Write-L", "Read-Mixed"}
}

// --- Table 3: workload characteristics ---

// Table3Row is one workload's target-vs-measured characteristics.
type Table3Row struct {
	Name                       string
	TargetDedup, MeasuredDedup float64
	TargetHit, MeasuredHit     float64
	MeasuredComp               float64
}

// Table3 generates the four workloads, runs them through the baseline
// and reports measured dedup ratio, compression ratio and cache hit rate
// against the paper's targets.
func Table3(sc Scale, opts ...func(*runOptions)) ([]Table3Row, *metrics.Table, error) {
	targets := map[string][2]float64{ // dedup, hit
		"Write-H":    {0.88, 0.90},
		"Write-M":    {0.84, 0.81},
		"Write-L":    {0.431, 0.45},
		"Read-Mixed": {0.88, 0.90},
	}
	var rows []Table3Row
	tab := metrics.NewTable("Table 3: workload summary (target vs measured)",
		"workload", "dedup target", "dedup measured", "comp measured",
		"hit target", "hit measured")
	for _, name := range EvalWorkloads() {
		r, err := Run(core.Baseline, name, sc, opts...)
		if err != nil {
			return nil, nil, err
		}
		st := r.Server
		dedup := 0.0
		if writes := st.UniqueChunks + st.DuplicateChunks; writes > 0 {
			dedup = float64(st.DuplicateChunks) / float64(writes)
		}
		comp := 1.0
		if st.UniqueChunks > 0 {
			comp = float64(st.StoredBytes) / float64(st.UniqueChunks*4096)
		}
		row := Table3Row{
			Name:          name,
			TargetDedup:   targets[name][0],
			MeasuredDedup: dedup,
			TargetHit:     targets[name][1],
			MeasuredHit:   r.Cache.HitRate(),
			MeasuredComp:  comp,
		}
		rows = append(rows, row)
		tab.Row(name, metrics.Pct(row.TargetDedup), metrics.Pct(row.MeasuredDedup),
			metrics.Pct(row.MeasuredComp), metrics.Pct(row.TargetHit), metrics.Pct(row.MeasuredHit))
	}
	tab.Note("paper sizes: 176-180M IOs (~704 GB); runs here are scale-invariant subsets")
	return rows, tab, nil
}

// --- Figure 11: host memory bandwidth, baseline vs FIDR ---

// Fig11Row is one workload's comparison.
type Fig11Row struct {
	Workload           string
	BaselineMemPerByte float64
	FIDRMemPerByte     float64
	Reduction          float64
}

// Fig11 reproduces Figure 11: FIDR's host-memory-bandwidth reduction per
// workload (paper: up to 79.1% write-only, 84.9% mixed).
func Fig11(sc Scale) ([]Fig11Row, *metrics.Table, error) {
	var rows []Fig11Row
	tab := metrics.NewTable("Figure 11: host memory BW utilization (per client byte)",
		"workload", "baseline B/B", "FIDR B/B", "reduction", "baseline @75GB/s", "FIDR @75GB/s")
	for _, name := range EvalWorkloads() {
		base, err := Run(core.Baseline, name, sc)
		if err != nil {
			return nil, nil, err
		}
		fidr, err := Run(core.FIDRFull, name, sc)
		if err != nil {
			return nil, nil, err
		}
		row := Fig11Row{
			Workload:           name,
			BaselineMemPerByte: base.MemPerByte(),
			FIDRMemPerByte:     fidr.MemPerByte(),
		}
		if row.BaselineMemPerByte > 0 {
			row.Reduction = 1 - row.FIDRMemPerByte/row.BaselineMemPerByte
		}
		rows = append(rows, row)
		tab.Row(name, row.BaselineMemPerByte, row.FIDRMemPerByte, metrics.Pct(row.Reduction),
			metrics.GBps(base.Snapshot.MemBWAt(TargetThroughput)),
			metrics.GBps(fidr.Snapshot.MemBWAt(TargetThroughput)))
	}
	tab.Note("paper: reductions up to 79.1%% (write-only) and 84.9%% (Read-Mixed)")
	return rows, tab, nil
}

// --- Figure 12: CPU utilization, baseline vs FIDR ---

// Fig12Row is one workload's CPU comparison, with the stacked savings
// attribution the paper plots (NIC hashing removes the predictor; the
// Cache HW-Engine removes tree + table-SSD stack).
type Fig12Row struct {
	Workload          string
	BaselineNsPerByte float64
	NicOnlyNsPerByte  float64
	FIDRNsPerByte     float64
	TotalReduction    float64
	FromNICHashing    float64
	FromHWCache       float64
}

// Fig12 reproduces Figure 12 (paper: up to 68% reduction write-only,
// 39% mixed; 20-37% from removing the predictor, 19-44% points more from
// HW table-cache management).
func Fig12(sc Scale) ([]Fig12Row, *metrics.Table, error) {
	var rows []Fig12Row
	tab := metrics.NewTable("Figure 12: host CPU utilization (ns per client byte)",
		"workload", "baseline", "+NIC/P2P", "+HW cache", "total reduction",
		"from NIC hashing", "from HW cache")
	for _, name := range EvalWorkloads() {
		base, err := Run(core.Baseline, name, sc)
		if err != nil {
			return nil, nil, err
		}
		nicOnly, err := Run(core.FIDRNicP2P, name, sc)
		if err != nil {
			return nil, nil, err
		}
		full, err := Run(core.FIDRFull, name, sc)
		if err != nil {
			return nil, nil, err
		}
		row := Fig12Row{
			Workload:          name,
			BaselineNsPerByte: base.CPUNsPerByte(),
			NicOnlyNsPerByte:  nicOnly.CPUNsPerByte(),
			FIDRNsPerByte:     full.CPUNsPerByte(),
		}
		if row.BaselineNsPerByte > 0 {
			row.TotalReduction = 1 - row.FIDRNsPerByte/row.BaselineNsPerByte
			row.FromNICHashing = 1 - row.NicOnlyNsPerByte/row.BaselineNsPerByte
			row.FromHWCache = row.TotalReduction - row.FromNICHashing
		}
		rows = append(rows, row)
		tab.Row(name, row.BaselineNsPerByte, row.NicOnlyNsPerByte, row.FIDRNsPerByte,
			metrics.Pct(row.TotalReduction), metrics.Pct(row.FromNICHashing), metrics.Pct(row.FromHWCache))
	}
	tab.Note("paper: up to 68%% (write-only) and 39%% (mixed) CPU reduction")
	return rows, tab, nil
}

// --- Figure 13: Cache HW-Engine throughput ---

// Fig13Row is one (workload, width) model point.
type Fig13Row struct {
	Workload string
	Width    int
	GBps     float64
	// Binding names the limiting resource.
	Binding string
}

// crashRateMemo caches measured speculative crash rates per width.
var crashRateMemo = map[int]float64{}

// measuredCrashRate runs the speculative executor over a paper-scale tree
// (the prototype's 410-MB cache indexes ~100K lines) with width-way
// random updates and returns the observed crash/replay rate. The
// functional experiment trees are far smaller (2.8% of a scaled-down
// table), which would overstate conflicts by orders of magnitude, so the
// crash rate is measured at the size the device actually runs at. Bucket
// indexes are uniform hashes, so the update key distribution is the same
// for every workload.
func measuredCrashRate(width int) (float64, error) {
	if r, ok := crashRateMemo[width]; ok {
		return r, nil
	}
	tree := hwtree.NewTree()
	seed := uint64(0x5EED)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed % hwtree.MediumCacheLines
	}
	for i := 0; i < int(hwtree.MediumCacheLines); i++ {
		tree.Put(next(), uint64(i))
	}
	exec, err := hwtree.NewSpecExecutor(tree, width)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 20000; i++ {
		if i%2 == 0 {
			exec.Enqueue(hwtree.Update{Kind: hwtree.UpdateInsert, Key: next(), Val: 1})
		} else {
			exec.Enqueue(hwtree.Update{Kind: hwtree.UpdateDelete, Key: next()})
		}
		if exec.Pending() >= width {
			exec.Drain()
		}
	}
	exec.Drain()
	r := exec.Stats().CrashRate()
	crashRateMemo[width] = r
	return r, nil
}

// calibratedLeafHit returns the on-chip leaf-cache hit rate used for the
// device model. At paper scale the prototype's ~1-MB leaf cache absorbs a
// large share of Write-H's leaf reads (its hot bucket set is small enough
// to concentrate on cached leaves) but almost none of Write-M/L's; our
// scaled-down functional trees are too small to reproduce that locality,
// so the value is calibrated per workload against the Figure 13 anchors
// (see EXPERIMENTS.md).
func calibratedLeafHit(name string) float64 {
	switch name {
	case "Write-H", "Read-Mixed":
		return 0.40
	default:
		return 0
	}
}

// Fig13 reproduces Figure 13: HW tree throughput with 1/2/4 concurrent
// updates. Workload points (miss rate, crash rate) are measured
// functionally from the FIDR runs; the leaf-cache hit is calibrated
// (calibratedLeafHit). The points feed the pipeline throughput model.
func Fig13(sc Scale) ([]Fig13Row, *metrics.Table, error) {
	p := hwtree.MediumTreeParams()
	var rows []Fig13Row
	tab := metrics.NewTable("Figure 13: Cache HW-Engine throughput (modeled from measured workload points)",
		"workload", "miss rate", "leaf$ hit", "1 update", "2 updates", "4 updates")
	for _, name := range []string{"Write-H", "Write-M", "Write-L"} {
		r, err := Run(core.FIDRFull, name, sc)
		if err != nil {
			return nil, nil, err
		}
		wl := hwtree.WorkloadPoint{
			MissRate:     1 - r.Cache.HitRate(),
			LeafCacheHit: calibratedLeafHit(name),
		}
		var cells []any
		cells = append(cells, name, metrics.Pct(wl.MissRate), metrics.Pct(wl.LeafCacheHit))
		for _, w := range []int{1, 2, 4} {
			crash, err := measuredCrashRate(w)
			if err != nil {
				return nil, nil, err
			}
			wl.CrashRate = crash
			bps, caps, err := p.Throughput(wl, w)
			if err != nil {
				return nil, nil, err
			}
			binding := "update"
			min := caps.Update
			if caps.DRAMPort < min {
				binding, min = "dram", caps.DRAMPort
			}
			if caps.Clock < min {
				binding = "clock"
			}
			rows = append(rows, Fig13Row{Workload: name, Width: w, GBps: bps / 1e9, Binding: binding})
			cells = append(cells, metrics.GBps(bps))
		}
		tab.Row(cells...)
	}
	c4, _ := measuredCrashRate(4)
	tab.Note("speculative crash/replay rate at width 4 on a paper-scale (~100K-line) tree: %.3f%% (paper: <0.1%%)", 100*c4)
	tab.Note("paper anchors: Write-M 27.1 GB/s (1 update) -> 63.8 GB/s (4); Write-H saturates ~127 GB/s at DRAM BW")
	return rows, tab, nil
}

// --- Figure 14: overall throughput ---

// Fig14Row is one workload's throughput series across configurations.
type Fig14Row struct {
	Workload string
	// GBps per configuration: baseline, +NIC/P2P, +HW$ single-update,
	// +HW$ multi-update.
	Baseline, NicP2P, HWSingle, HWMulti float64
	Speedup                             float64
}

// Fig14 reproduces Figure 14: per-socket throughput projection for the
// four configurations. Host intensities come from functional runs; the
// Cache HW-Engine configurations are additionally capped by the Figure 13
// device model at the matching update width.
func Fig14(sc Scale) ([]Fig14Row, *metrics.Table, error) {
	sock := hostmodel.PaperSocket()
	tp := hwtree.MediumTreeParams()
	var rows []Fig14Row
	tab := metrics.NewTable("Figure 14: overall throughput (projected per socket)",
		"workload", "baseline", "+NIC/P2P", "+HW$ 1-update", "+HW$ 4-update", "speedup")
	for _, name := range EvalWorkloads() {
		base, err := Run(core.Baseline, name, sc)
		if err != nil {
			return nil, nil, err
		}
		nic, err := Run(core.FIDRNicP2P, name, sc)
		if err != nil {
			return nil, nil, err
		}
		// The update width changes the engine model's cap only; the
		// functional run is the same at every width.
		full, err := Run(core.FIDRFull, name, sc)
		if err != nil {
			return nil, nil, err
		}
		cap := func(width int) float64 {
			crash, err := measuredCrashRate(width)
			if err != nil {
				return 0
			}
			wl := hwtree.WorkloadPoint{
				MissRate:     1 - full.Cache.HitRate(),
				CrashRate:    crash,
				LeafCacheHit: calibratedLeafHit(name),
			}
			bps, _, err := tp.Throughput(wl, width)
			if err != nil {
				return 0
			}
			return bps
		}
		row := Fig14Row{
			Workload: name,
			Baseline: sock.MaxThroughput(base.Snapshot, 0) / 1e9,
			NicP2P:   sock.MaxThroughput(nic.Snapshot, 0) / 1e9,
			HWSingle: sock.MaxThroughput(full.Snapshot, cap(1)) / 1e9,
			HWMulti:  sock.MaxThroughput(full.Snapshot, cap(4)) / 1e9,
		}
		if row.Baseline > 0 {
			row.Speedup = row.HWMulti / row.Baseline
		}
		rows = append(rows, row)
		tab.Row(name, metrics.GBps(row.Baseline*1e9), metrics.GBps(row.NicP2P*1e9),
			metrics.GBps(row.HWSingle*1e9), metrics.GBps(row.HWMulti*1e9),
			metrics.FormatFloat(row.Speedup)+"x")
	}
	tab.Note("paper: up to 3.3x (write-only), 1.7x (Read-Mixed); single-update HW$ can degrade Write-L/M")
	return rows, tab, nil
}

// --- §7.6: request latency ---

// LatencyResult holds the modeled request latencies.
type LatencyResult struct {
	BaselineRead, FIDRRead   time.Duration
	BaselineWrite, FIDRWrite time.Duration
}

// Latency reproduces §7.6: server-side read latency (paper: 700 us ->
// 490 us) and unchanged write commit latency.
func Latency() (LatencyResult, *metrics.Table) {
	p := core.DefaultLatency()
	res := LatencyResult{
		BaselineRead:  p.ReadLatency(core.Baseline),
		FIDRRead:      p.ReadLatency(core.FIDRFull),
		BaselineWrite: p.WriteCommitLatency(core.Baseline),
		FIDRWrite:     p.WriteCommitLatency(core.FIDRFull),
	}
	tab := metrics.NewTable("Section 7.6: request latency",
		"metric", "baseline", "FIDR", "paper")
	tab.Row("batched 4-KB read (server side)", res.BaselineRead.String(), res.FIDRRead.String(), "700us -> 490us")
	tab.Row("write commit", res.BaselineWrite.String(), res.FIDRWrite.String(), "unchanged (NVRAM buffering)")
	return res, tab
}
