package experiments

import (
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
