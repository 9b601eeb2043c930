package fidr_test

import (
	"os"
	"strings"
	"testing"

	"fidr"
	"fidr/internal/core"
	"fidr/internal/metrics"
)

// driveNamed runs the op sequence both golden views are pinned over:
// duplicate-heavy writes, overwrites that strand garbage, a flush, reads
// from every tier, and one GC pass on each of st's servers — enough to
// touch every PCIe route and every lazily named series the FIDR
// datapath has.
func driveNamed(t *testing.T, st fidr.Store, servers ...*fidr.Server) {
	t.Helper()
	for i := uint64(0); i < 400; i++ {
		if err := st.Write(i, fidr.MakeChunk(i%10, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 400; i++ {
		if err := st.Write(i, fidr.MakeChunk(1000+i, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if _, err := st.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, srv := range servers {
		if _, err := srv.Compact(0); err != nil {
			t.Fatal(err)
		}
	}
}

// nameSet renders a view as sorted "kind name" lines.
func nameSet(g metrics.Gatherer) string {
	var b strings.Builder
	for _, m := range g.Snapshot() {
		b.WriteString(m.Kind + " " + m.Name + "\n")
	}
	return b.String()
}

// TestMetricNamesGolden pins the name+kind set of the composed
// single-server view (registry + capacity ratios, WAL attached — what
// fidrd serves) and of a 2-group cluster view, so a change to how series
// reach the registry provably leaves the HTTP surface where it was.
func TestMetricNamesGolden(t *testing.T) {
	cfg := fidr.DefaultConfig(fidr.FIDRFull)
	cfg.ContainerSize = 64 << 10

	wal, err := core.NewWAL(core.NewMemWALDevice())
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.WAL = wal
	srv, err := fidr.NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := srv.EnableObservability(nil)
	driveNamed(t, srv, srv)
	single := metrics.Multi(reg, metrics.CapacityRatios(reg))

	cl, err := fidr.NewCluster(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	clView := cl.EnableObservability()
	driveNamed(t, cl, cl.Group(0), cl.Group(1))

	for _, tc := range []struct {
		file string
		view metrics.Gatherer
	}{
		{"testdata/metric_names_single.txt", single},
		{"testdata/metric_names_cluster2.txt", clView},
	} {
		want, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if got := nameSet(tc.view); got != string(want) {
			t.Errorf("%s: metric name set moved\n--- got ---\n%s", tc.file, got)
		}
	}
}
