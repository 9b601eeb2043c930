package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"fidr/internal/hostmodel"
)

// ledgerGoldenPath holds every hostmodel.Snapshot field of ledgerRuns, one
// line each. It is the reference, not an output: a change that moves a
// line has changed what the model charges, so never regenerate it to make
// a change pass. Its three baseline lines that count payload bytes
// (mem.host_fpga, mem.host_ssd, payload_bytes) were regenerated once, on
// purpose, when the LZ kernel's probe began to skip through incompressible
// runs and compressed bytes changed.
const ledgerGoldenPath = "testdata/ledger_golden.txt"

// ledgerRuns renders the host ledger of each architecture, and of
// FIDR-Full with its data-SSD queues offloaded (the one conditional
// data-SSD charge), after one fixed write-then-read workload. Small
// containers and a small table cache make containers seal, cache lines
// evict and GC move chunks, so every priced event fires somewhere.
func ledgerRuns(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, run := range []struct {
		arch    Arch
		offload bool
	}{{Baseline, false}, {FIDRNicP2P, false}, {FIDRFull, false}, {FIDRFull, true}} {
		tssd, dssd := walTestDevices()
		cfg := walTestConfig(run.arch, tssd, dssd, nil)
		cfg.OffloadDataSSDQueues = run.offload
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mixedOps(t, s, 0, 300)
		name := run.arch.String()
		if run.offload {
			name += "+offload"
		}
		snap := s.Ledger().Snapshot()
		for _, p := range hostmodel.Paths() {
			fmt.Fprintf(&b, "%s mem.%s %d\n", name, p.Slug(), snap.MemBytes[p])
		}
		for _, c := range hostmodel.Components() {
			fmt.Fprintf(&b, "%s cpu.%s %d\n", name, c.Slug(), snap.CPUNanos[c])
		}
		fmt.Fprintf(&b, "%s client_bytes %d\n", name, snap.ClientBytes)
		fmt.Fprintf(&b, "%s payload_bytes %d\n", name, snap.PayloadBytes)
	}
	return b.String()
}

// TestLedgerGolden pins the host ledger exactly, field by field. The
// scorecard golden sees only rounded shares of it.
func TestLedgerGolden(t *testing.T) {
	want, err := os.ReadFile(ledgerGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(ledgerRuns(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d ledger lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
		}
	}
}
