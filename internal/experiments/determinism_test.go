package experiments

import (
	"os"
	"reflect"
	"testing"

	"fidr/internal/core"
)

// TestTable3LaneDeterminism is the experiment-plane half of the lane
// invariant: the full Table 3 evaluation — every workload through a real
// baseline server — renders byte-identical output and identical server
// stats at 1, 2 and 8 accelerator lanes.
func TestTable3LaneDeterminism(t *testing.T) {
	sc := TestScale()
	refRows, refTab, err := Table3(sc, WithLanes(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	refOut := refTab.String()
	if refOut == "" {
		t.Fatal("empty rendered table")
	}
	for _, n := range []int{2, 8} {
		rows, tab, err := Table3(sc, WithLanes(n, n))
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.String(); got != refOut {
			t.Fatalf("lanes=%d rendered output differs:\n%s\n--- want ---\n%s", n, got, refOut)
		}
		if len(rows) != len(refRows) {
			t.Fatalf("lanes=%d row count %d != %d", n, len(rows), len(refRows))
		}
		for i := range rows {
			if rows[i] != refRows[i] {
				t.Fatalf("lanes=%d row %d differs: %+v != %+v", n, i, rows[i], refRows[i])
			}
		}
	}
}

// TestRunLaneDeterminism checks the per-run stats contract Table 3 rests
// on: identical RunResult server stats and ledger snapshot across lane
// counts, for both architectures of the low-dedup Write-L workload (the
// one that keeps the compression lanes busiest).
func TestRunLaneDeterminism(t *testing.T) {
	sc := TestScale()
	for _, arch := range []core.Arch{core.Baseline, core.FIDRFull} {
		ref, err := Run(arch, "Write-L", sc, WithLanes(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 8} {
			r, err := Run(arch, "Write-L", sc, WithLanes(n, n))
			if err != nil {
				t.Fatal(err)
			}
			if r.Server != ref.Server {
				t.Fatalf("%v lanes=%d server stats diverge", arch, n)
			}
			if r.Cache != ref.Cache {
				t.Fatalf("%v lanes=%d cache stats diverge", arch, n)
			}
			if r.Snapshot != ref.Snapshot {
				t.Fatalf("%v lanes=%d ledger snapshot diverges", arch, n)
			}
			if r.P2PBytes != ref.P2PBytes || r.RootBytes != ref.RootBytes {
				t.Fatalf("%v lanes=%d PCIe byte counts diverge", arch, n)
			}
		}
	}
}

// TestExtensionLaneDeterminism holds the three extension studies to the
// same rule: counts and ratios only, so rows and rendered tables are
// identical at any lane count (and on any machine).
func TestExtensionLaneDeterminism(t *testing.T) {
	sc := Scale{IOs: 1500}
	render := func(opt func(*runOptions)) (string, []any) {
		cdc, cdcTab, err := CDC(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		capRows, capTab, err := Capacity(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		arch, archTab, err := Archival(sc, opt)
		if err != nil {
			t.Fatal(err)
		}
		return cdcTab.String() + capTab.String() + archTab.String(), []any{cdc, capRows, arch}
	}
	refOut, refRows := render(WithLanes(1, 1))
	for _, n := range []int{2, 8} {
		out, rows := render(WithLanes(n, n))
		if out != refOut {
			t.Fatalf("lanes=%d rendered output differs:\n%s\n--- want ---\n%s", n, out, refOut)
		}
		if !reflect.DeepEqual(rows, refRows) {
			t.Fatalf("lanes=%d typed rows differ:\n%+v\n--- want ---\n%+v", n, rows, refRows)
		}
	}
}

// TestScorecardGolden pins the reproduction's fixed point: the scorecard
// at 2000 IOs renders byte for byte what it rendered when the golden file
// was taken (PR 19's tree). Every number in it is a count, a ratio or a
// model projection — none is clocked — so a difference is a change in
// behaviour, never noise. Do not regenerate the file to make a refactor
// pass. Its Fig 12, 14 and 15 rows moved once, on purpose, when FIDR's
// commit stopped charging a second LBA-table op per unique chunk.
func TestScorecardGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/scorecard_ios2000.txt")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Scorecard(Scale{IOs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.String(); got != string(want) {
		t.Fatalf("scorecard moved:\n%s\n--- want ---\n%s", got, want)
	}
}
