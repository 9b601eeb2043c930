package experiments

import (
	"time"

	"fidr/internal/core"
	"fidr/internal/metrics"
)

// Observe runs the Read-Mixed workload on full FIDR with live
// observability enabled and renders the resulting metrics registry. The
// metric names are exactly the ones fidrd serves at -metrics-addr
// (stage.*, req.*, core.*, tablecache.*, nic.*, engine.*, ssd.*),
// so bench output and a live daemon's /metrics dump line up directly.
func Observe(sc Scale) (string, *metrics.Table, error) {
	cfg, err := serverConfig(core.FIDRFull, sc.IOs, 0.028)
	if err != nil {
		return "", nil, err
	}
	srv, err := core.New(cfg)
	if err != nil {
		return "", nil, err
	}
	reg := srv.EnableObservability(nil)
	wp, err := workloadFor("Read-Mixed", sc.IOs, cfg.CacheLines)
	if err != nil {
		return "", nil, err
	}
	if _, err := driveAndCollect(srv, wp); err != nil {
		return "", nil, err
	}

	tab := metrics.NewTable("live observability registry (FIDR, Read-Mixed)",
		"metric", "count/value", "mean", "p50", "p99", "max")
	for _, m := range reg.Snapshot() {
		switch m.Kind {
		case "hist":
			h := m.Hist
			tab.Row(m.Name, h.Count,
				time.Duration(h.Mean).Round(time.Nanosecond).String(),
				time.Duration(h.P50).Round(time.Nanosecond).String(),
				time.Duration(h.P99).Round(time.Nanosecond).String(),
				time.Duration(h.Max).Round(time.Nanosecond).String())
		default:
			tab.Row(m.Name, metrics.FormatFloat(m.Value), "", "", "", "")
		}
	}
	tab.Note("histogram cells are wall-clock nanosecond distributions (ssd.*.access_ns: the device model's time per command); same names as fidrd -metrics-addr")
	return reg.Dump(), tab, nil
}
