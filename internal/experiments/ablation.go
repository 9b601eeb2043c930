package experiments

import (
	"fidr/internal/blockcomp"
	"fidr/internal/chunk"
	"fidr/internal/core"
	"fidr/internal/hashpbn"
	"fidr/internal/hostmodel"
	"fidr/internal/hwtree"
	"fidr/internal/metrics"
	"fidr/internal/trace"
)

// Ablation studies for the design choices DESIGN.md calls out. These go
// beyond the paper's figures: each isolates one knob of the architecture
// and quantifies its contribution.

// AblationChunkSizeRow is one chunking granularity's trade-off point.
type AblationChunkSizeRow struct {
	ChunkKB       int
	Amplification float64
	DedupRatio    float64
	TableGB       float64
}

// AblationChunkSize sweeps the dedup granularity (4/8/16/32 KB) over the
// mail skeleton, quantifying §3.1's trade-off: small chunks maximize
// dedup and avoid read-modify-write amplification but inflate the
// Hash-PBN table; CIDR's 32-KB choice minimizes the table and destroys
// both other properties.
func AblationChunkSize(sc Scale) ([]AblationChunkSizeRow, *metrics.Table, error) {
	writes := trace.GenerateSkeleton(trace.MailSkeleton(sc.IOs))
	var rows []AblationChunkSizeRow
	tab := metrics.NewTable("Ablation: chunking granularity (mail skeleton, 1-PB unique capacity)",
		"chunk size", "IO amplification", "dedup ratio", "Hash-PBN table")
	const uniquePB = 1 << 50 / 4096 // unique chunks at 4-KB granularity for 1 PB
	for _, kb := range []int{4, 8, 16, 32} {
		r, err := chunk.SimulateRMW(chunk.RMWConfig{
			BlockSize: 4096, ChunkSize: kb * 1024, BufferBytes: 4 << 20,
		}, writes)
		if err != nil {
			return nil, nil, err
		}
		geom, err := hashpbn.GeometryFor(uniquePB*4/uint64(kb), 1.0)
		if err != nil {
			return nil, nil, err
		}
		row := AblationChunkSizeRow{
			ChunkKB:       kb,
			Amplification: r.Amplification(),
			DedupRatio:    r.DedupRatio(),
			TableGB:       float64(geom.TableBytes()) / 1e9,
		}
		rows = append(rows, row)
		tab.Row(metrics.FormatFloat(float64(kb))+" KB", row.Amplification,
			metrics.Pct(row.DedupRatio), metrics.FormatFloat(row.TableGB/1000)+" TB")
	}
	tab.Note("4-KB chunking trades a ~10x larger metadata table for dedup quality and no RMW — the premise of the whole paper")
	return rows, tab, nil
}

// AblationBatchRow is one batch-size point.
type AblationBatchRow struct {
	BatchChunks  int
	MemPerByte   float64
	CPUNsPerByte float64
}

// AblationBatch sweeps the accelerator batch size on FIDR: larger batches
// amortize per-batch device interactions but raise NIC buffer residency.
func AblationBatch(sc Scale) ([]AblationBatchRow, *metrics.Table, error) {
	return newMatrix(sc).ablationBatch()
}

func (m *matrix) ablationBatch() ([]AblationBatchRow, *metrics.Table, error) {
	var rows []AblationBatchRow
	tab := metrics.NewTable("Ablation: accelerator batch size (FIDR, Write-H)",
		"batch (chunks)", "host mem B/B", "host CPU ns/B")
	for _, batch := range []int{16, 64, 256} {
		r, err := m.run(core.FIDRFull, "Write-H", withConfig(func(c *core.Config) { c.BatchChunks = batch }))
		if err != nil {
			return nil, nil, err
		}
		row := AblationBatchRow{BatchChunks: batch, MemPerByte: r.MemPerByte(), CPUNsPerByte: r.CPUNsPerByte()}
		rows = append(rows, row)
		tab.Row(batch, row.MemPerByte, row.CPUNsPerByte)
	}
	tab.Note("per-batch device doorbells amortize with batch size; data-plane bytes are batch-invariant")
	return rows, tab, nil
}

// AblationCacheRow is one cache-size point.
type AblationCacheRow struct {
	CacheFrac float64
	HitRate   float64
	// ModelGBps is the Cache HW-Engine model at width 4 for the
	// resulting miss rate.
	ModelGBps float64
}

// AblationCache sweeps the cached fraction of the Hash-PBN table on
// Write-M, connecting DRAM spend to hit rate to engine throughput.
func AblationCache(sc Scale) ([]AblationCacheRow, *metrics.Table, error) {
	return newMatrix(sc).ablationCache()
}

func (m *matrix) ablationCache() ([]AblationCacheRow, *metrics.Table, error) {
	var rows []AblationCacheRow
	tab := metrics.NewTable("Ablation: table-cache size (Write-M)",
		"cached fraction", "hit rate", "HW-engine model @4 updates")
	for _, frac := range []float64{0.01, 0.028, 0.10, 0.30} {
		r, err := m.run(core.FIDRFull, "Write-M", WithCacheFrac(frac))
		if err != nil {
			return nil, nil, err
		}
		e, err := m.engine(hwtree.MediumTreeParams(), r, 4)
		if err != nil {
			return nil, nil, err
		}
		row := AblationCacheRow{CacheFrac: frac, HitRate: r.Cache.HitRate(), ModelGBps: e.Bps / 1e9}
		rows = append(rows, row)
		tab.Row(metrics.Pct(frac), metrics.Pct(row.HitRate), metrics.GBps(e.Bps))
	}
	tab.Note("the paper's 2.8%% operating point buys most of the achievable hit rate for Write-M's locality")
	return rows, tab, nil
}

// AblationWidthRow is one speculation-width point.
type AblationWidthRow struct {
	Width     int
	CrashRate float64
	GBps      float64
}

// AblationWidth extends Figure 13 beyond the paper's 4-way speculation,
// showing where wider issue stops paying (DRAM port saturation) and how
// the crash rate grows.
func AblationWidth(sc Scale) ([]AblationWidthRow, *metrics.Table, error) {
	return newMatrix(sc).ablationWidth()
}

func (m *matrix) ablationWidth() ([]AblationWidthRow, *metrics.Table, error) {
	r, err := m.run(core.FIDRFull, "Write-M")
	if err != nil {
		return nil, nil, err
	}
	var rows []AblationWidthRow
	tab := metrics.NewTable("Ablation: speculative update width (Write-M)",
		"width", "crash rate", "modeled throughput")
	for _, w := range []int{1, 2, 4, 8, 16} {
		e, err := m.engine(hwtree.MediumTreeParams(), r, w)
		if err != nil {
			return nil, nil, err
		}
		row := AblationWidthRow{Width: w, CrashRate: e.CrashRate, GBps: e.Bps / 1e9}
		rows = append(rows, row)
		tab.Row(w, metrics.Pct(e.CrashRate), metrics.GBps(e.Bps))
	}
	tab.Note("beyond width 4 the DRAM port binds: the paper's choice is the knee")
	return rows, tab, nil
}

// AblationReadOffloadRow compares Read-Mixed with and without the §7.5
// future-work NVMe offload.
type AblationReadOffloadRow struct {
	Offload      bool
	CPUNsPerByte float64
	ProjectedGB  float64
}

// AblationReadOffload implements and measures the paper's future work:
// moving the data-SSD read queues into the FPGA lifts Read-Mixed's
// projected throughput, which §7.5 identifies as the remaining ceiling.
func AblationReadOffload(sc Scale) ([]AblationReadOffloadRow, *metrics.Table, error) {
	return newMatrix(sc).ablationReadOffload()
}

func (m *matrix) ablationReadOffload() ([]AblationReadOffloadRow, *metrics.Table, error) {
	sock := hostmodel.PaperSocket()
	var rows []AblationReadOffloadRow
	tab := metrics.NewTable("Ablation: NVMe read-path offload (Read-Mixed, §7.5 future work)",
		"data-SSD queues", "host CPU ns/B", "projected throughput")
	for _, offload := range []bool{false, true} {
		r, err := m.run(core.FIDRFull, "Read-Mixed", withConfig(func(c *core.Config) { c.OffloadDataSSDQueues = offload }))
		if err != nil {
			return nil, nil, err
		}
		proj := sock.MaxThroughput(r.Snapshot, 0)
		row := AblationReadOffloadRow{Offload: offload, CPUNsPerByte: r.CPUNsPerByte(), ProjectedGB: proj / 1e9}
		rows = append(rows, row)
		where := "host software"
		if offload {
			where = "FPGA (offloaded)"
		}
		tab.Row(where, row.CPUNsPerByte, metrics.GBps(proj))
	}
	tab.Note("the paper: 'We can also offload this NVMe software stack to FPGA, but we left it as future work'")
	return rows, tab, nil
}

// AblationReadCacheRow compares skewed reads with and without the §8
// hot-block read cache.
type AblationReadCacheRow struct {
	CacheChunks  int
	SSDReadFrac  float64 // fraction of client reads that reached the SSDs
	CPUNsPerByte float64
}

// AblationReadCache runs the §8 imbalanced-read scenario (Zipf-skewed
// reads) with the hot-block cache off and on, measuring how much data-SSD
// read traffic the cache absorbs.
func AblationReadCache(sc Scale) ([]AblationReadCacheRow, *metrics.Table, error) {
	return newMatrix(sc).ablationReadCache()
}

func (m *matrix) ablationReadCache() ([]AblationReadCacheRow, *metrics.Table, error) {
	var rows []AblationReadCacheRow
	tab := metrics.NewTable("Ablation: hot-block read cache (Read-Skewed, §8 discussion)",
		"read cache (chunks)", "reads reaching SSDs", "host CPU ns/B")
	for _, chunks := range []int{0, 4096} {
		r, err := m.run(core.FIDRFull, "Read-Skewed", withConfig(func(c *core.Config) { c.ReadCacheChunks = chunks }))
		if err != nil {
			return nil, nil, err
		}
		ssdFrac := 0.0
		if reads := r.Server.ClientReads; reads > 0 {
			served := r.Server.NICReadHits + r.Server.ReadCacheHits + r.Server.PendingReads
			if served > reads {
				served = reads
			}
			ssdFrac = float64(reads-served) / float64(reads)
		}
		row := AblationReadCacheRow{CacheChunks: chunks, SSDReadFrac: ssdFrac, CPUNsPerByte: r.CPUNsPerByte()}
		rows = append(rows, row)
		tab.Row(chunks, metrics.Pct(ssdFrac), row.CPUNsPerByte)
	}
	tab.Note("the paper (§8): 'maintain frequently accessed blocks in main memory' for imbalanced reads")
	return rows, tab, nil
}

// AblationScaleoutRow is one group-count point of the §5.6 arrangement.
type AblationScaleoutRow struct {
	Groups int
	// StoredPerClient is stored/client bytes: rises with groups because
	// the dedup domain splits.
	StoredPerClient float64
	// MemPerByte rises mildly with groups: re-stored cross-shard
	// duplicates add unique-chunk work per client byte.
	MemPerByte float64
}

// AblationScaleout shards the Write-H workload over 1/2/4 device groups
// (fidr.Cluster's arrangement) and quantifies the dedup-domain split.
func AblationScaleout(sc Scale) ([]AblationScaleoutRow, *metrics.Table, error) {
	var rows []AblationScaleoutRow
	tab := metrics.NewTable("Ablation: device-group scale-out (Write-H, §5.6)",
		"groups", "stored/client bytes", "host mem B/B")
	for _, groups := range []int{1, 2, 4} {
		// Shard the generated stream with fidr.Cluster's routing
		// function and run each shard on its own server.
		cfg, err := config(core.FIDRFull, sc.IOs, nil)
		if err != nil {
			return nil, nil, err
		}
		servers := make([]*core.Server, groups)
		for i := range servers {
			if servers[i], err = core.New(cfg); err != nil {
				return nil, nil, err
			}
		}
		wp, err := workloadFor("Write-H", sc.IOs, cfg.CacheLines)
		if err != nil {
			return nil, nil, err
		}
		gen, err := trace.NewGenerator(wp)
		if err != nil {
			return nil, nil, err
		}
		sh := blockcomp.NewShaper(wp.CompressRatio)
		buf := make([]byte, cfg.ChunkSize)
		for {
			req, ok := gen.Next()
			if !ok {
				break
			}
			if req.Op != trace.OpWrite {
				continue
			}
			sh.Block(req.ContentSeed, buf)
			g := core.ShardOf(req.LBA, groups)
			if err := servers[g].Write(req.LBA, buf); err != nil {
				return nil, nil, err
			}
		}
		var stored, client, mem uint64
		for _, srv := range servers {
			if err := srv.Flush(); err != nil {
				return nil, nil, err
			}
			st := srv.Stats()
			stored += st.StoredBytes
			client += st.ClientBytes
			mem += srv.Ledger().Snapshot().TotalMemBytes()
		}
		row := AblationScaleoutRow{
			Groups:          groups,
			StoredPerClient: float64(stored) / float64(client),
			MemPerByte:      float64(mem) / float64(client),
		}
		rows = append(rows, row)
		tab.Row(groups, row.StoredPerClient, row.MemPerByte)
	}
	tab.Note("splitting the dedup domain stores cross-shard duplicates once per shard, which also raises per-byte host work")
	return rows, tab, nil
}
