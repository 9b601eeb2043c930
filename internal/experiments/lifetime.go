package experiments

import (
	"fidr/internal/core"
	"fidr/internal/metrics"
)

// Lifetime quantifies the paper's opening motivation: inline reduction
// "not only improves an SSD lifetime, which is limited by the number of
// writes to its flash cells, but also reduces the initial cost per GB"
// (§1). For each workload we measure flash bytes actually written — data
// SSDs (containers) plus table SSDs (bucket fills and flushes) — per
// client byte. The inverse of that write-amplification factor is the
// lifetime multiplier over a no-reduction server (which writes every
// client byte once).
type LifetimeRow struct {
	Workload string
	// DataWAF is data-SSD flash bytes per client write byte.
	DataWAF float64
	// TableWAF is table-SSD flash bytes per client write byte (the
	// metadata tax of deduplication).
	TableWAF float64
	// LifetimeX is the data-SSD lifetime multiplier vs no reduction.
	LifetimeX float64
}

// Lifetime runs the write workloads on FIDR and reports flash-write
// accounting.
func Lifetime(sc Scale) ([]LifetimeRow, *metrics.Table, error) {
	var rows []LifetimeRow
	tab := metrics.NewTable("SSD lifetime: flash bytes written per client byte (FIDR)",
		"workload", "data-SSD WAF", "table-SSD WAF", "data-SSD lifetime multiplier")
	for _, name := range []string{"Write-H", "Write-M", "Write-L"} {
		cfg, err := serverConfig(core.FIDRFull, sc.IOs, 0.028)
		if err != nil {
			return nil, nil, err
		}
		wp, err := workloadFor(name, sc.IOs, cfg.CacheLines)
		if err != nil {
			return nil, nil, err
		}
		srv, err := core.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		if _, err := driveAndCollect(srv, wp); err != nil {
			return nil, nil, err
		}
		clientBytes := float64(srv.Stats().ClientBytes)
		dataWAF := float64(srv.DataSSDStats().WriteBytes) / clientBytes
		tableWAF := float64(srv.TableSSDStats().WriteBytes) / clientBytes
		row := LifetimeRow{
			Workload: name,
			DataWAF:  dataWAF,
			TableWAF: tableWAF,
		}
		if dataWAF > 0 {
			row.LifetimeX = 1 / dataWAF
		}
		rows = append(rows, row)
		tab.Row(name, row.DataWAF, row.TableWAF, metrics.FormatFloat(row.LifetimeX)+"x")
	}
	tab.Note("a no-reduction server writes 1.0 B/B to flash; dedup+compression cut it by the reduction ratio (plus container padding), at a small table-SSD write tax")
	return rows, tab, nil
}
