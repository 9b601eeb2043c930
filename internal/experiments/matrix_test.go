package experiments

import (
	"slices"
	"testing"

	"fidr/internal/core"
)

// TestScorecardRunsEachKeyOnce: one scorecard plays each distinct
// (config, workload) once. Table 3 and Figs 11, 12 and 14 share the
// baseline, NIC-P2P and FIDR-Full runs of the four Table 3 workloads
// (12), Figs 4 and 15 the two baseline profiling runs, and Fig 15 adds
// FIDR-Full's (1): 15, where calling the figures one by one plays 43.
func TestScorecardRunsEachKeyOnce(t *testing.T) {
	m := newMatrix(Scale{IOs: 500}) // the keys do not depend on the scale
	if _, err := m.scorecard(); err != nil {
		t.Fatal(err)
	}
	if m.played != 15 || len(m.runs) != 15 {
		t.Fatalf("scorecard played %d runs over %d keys, want 15 and 15", m.played, len(m.runs))
	}
}

// renderAll renders names on m and returns each artifact's table.
func renderAll(t *testing.T, m *matrix, names []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(names))
	err := m.render(names, func(name, table string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = table
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRenderAllRunsEachKeyOnce: rendering every artifact from one matrix,
// as fidrbench all does, plays each distinct (config, workload) once. The
// scorecard's 15 keys, the batch (16, 256), cache (1%, 10%, 30%) and
// read-offload ablations' own FIDR-Full configs (6), and the read-cache
// ablation's two Read-Skewed runs: 23, where rendering each artifact on
// its own matrix plays 82.
func TestRenderAllRunsEachKeyOnce(t *testing.T) {
	m := newMatrix(Scale{IOs: 500}) // the keys do not depend on the scale
	renderAll(t, m, Names())
	if m.played != 23 || len(m.runs) != 23 {
		t.Fatalf("all artifacts played %d runs over %d keys, want 23 and 23", m.played, len(m.runs))
	}
}

// TestRenderOrderFree: an artifact's table does not depend on what the
// shared matrix played before it, so rendering the list reversed gives the
// same tables. selfperf, which times this host, is left out.
func TestRenderOrderFree(t *testing.T) {
	names := slices.DeleteFunc(Names(), func(n string) bool { return n == "selfperf" })
	sc := Scale{IOs: 1000}
	fwd := renderAll(t, newMatrix(sc), names)
	slices.Reverse(names)
	rev := renderAll(t, newMatrix(sc), names)
	for _, name := range names {
		if fwd[name] != rev[name] {
			t.Errorf("%s differs with the list reversed:\n%s\n--- forward ---\n%s", name, rev[name], fwd[name])
		}
	}
}

// TestRenderRefusesUnknown: an unknown name fails the call before any
// artifact renders or any run plays.
func TestRenderRefusesUnknown(t *testing.T) {
	m := newMatrix(Scale{IOs: 500})
	err := m.render([]string{"table3", "bogus"}, func(name, _ string, _ error) {
		t.Errorf("%s rendered", name)
	})
	if err == nil || m.played != 0 {
		t.Fatalf("err %v after %d runs, want an error and none", err, m.played)
	}
}

// TestKnobsRunSeparately: the matrix keys on the config's values, not on
// the workload's or the architecture's names, so every knob an experiment
// turns — lanes included, though they leave every count unchanged — is a
// run of its own, and asking again plays nothing.
func TestKnobsRunSeparately(t *testing.T) {
	m := newMatrix(Scale{IOs: 500})
	variants := []func(*runOptions){
		WithLanes(1, 1),
		WithLanes(2, 2),
		WithCacheFrac(0.10),
		withConfig(func(c *core.Config) { c.BatchChunks = 16 }),
		withConfig(func(c *core.Config) { c.OffloadDataSSDQueues = true }),
		withConfig(func(c *core.Config) { c.ReadCacheChunks = 4096 }),
	}
	for round := 0; round < 2; round++ {
		for _, v := range variants {
			if _, err := m.run(core.FIDRFull, "Read-Mixed", v); err != nil {
				t.Fatal(err)
			}
		}
		if m.played != len(variants) {
			t.Fatalf("round %d: %d runs for %d variants", round, m.played, len(variants))
		}
	}
}

// TestConfigForKeepsHostLanes pins what benchmark/ reads: ConfigFor is the
// experiments' config with the lane counts left at 0, so the benchmark's
// servers size their lane pools from the host.
func TestConfigForKeepsHostLanes(t *testing.T) {
	for _, arch := range []core.Arch{core.Baseline, core.FIDRFull} {
		got, err := ConfigFor(arch, 8000)
		if err != nil {
			t.Fatal(err)
		}
		if got.HashLanes != 0 || got.CompressLanes != 0 {
			t.Fatalf("%v: lanes %d/%d, want 0/0", arch, got.HashLanes, got.CompressLanes)
		}
		want, err := config(arch, 8000, []func(*runOptions){WithLanes(0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: ConfigFor %+v, want %+v", arch, got, want)
		}
	}
}
