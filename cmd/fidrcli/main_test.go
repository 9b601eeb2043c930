package main

import (
	"strings"
	"testing"
)

// statsRows renders a dump and returns the header and data rows of its
// two tables as fields.
func statsRows(t *testing.T, body string) (scalars, hists [][]string) {
	t.Helper()
	out, err := renderStats([]reply{{body: body}})
	if err != nil {
		t.Fatal(err)
	}
	tables := strings.Split(out, "\n== histograms ==\n")
	if len(tables) != 2 {
		t.Fatalf("stats output is not two tables:\n%s", out)
	}
	rows := func(table string) (rows [][]string) {
		for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
			if f := strings.Fields(line); !strings.HasPrefix(line, "==") && !strings.HasPrefix(line, "--") {
				rows = append(rows, f)
			}
		}
		return rows
	}
	return rows(tables[0]), rows(tables[1])
}

func TestParseStatsSingleServer(t *testing.T) {
	body := "counter core.writes 400\n" +
		"gauge core.batch_fill 0.5\n" +
		"hist stage.hash.ns count=65 mean=1000 min=10 p50=900 p90=2000 p99=3000 max=3100\n"
	scalars, hists := statsRows(t, body)
	if got := strings.Join(scalars[0], " "); got != "name value" {
		t.Fatalf("columns = %q, want no scopes", got)
	}
	if series := len(scalars) - 1 + len(hists) - 1; series != 3 {
		t.Fatalf("rendered %d series, want 3", series)
	}
	if got := strings.Join(scalars[1], " "); got != "core.writes 400" {
		t.Fatalf("counter rendered as %q", got)
	}
	if h := hists[1]; h[0] != "stage.hash.ns" || h[5] != "3000" {
		t.Fatalf("hist row = %v (columns %v)", h, hists[0])
	}
}

func TestParseStatsClusterScopes(t *testing.T) {
	body := "counter core.writes 400\n" +
		"counter group0.core.writes 90\n" +
		"counter group1.core.writes 110\n" +
		"counter group10.core.writes 200\n" +
		"gauge group0.derived.write_share 0.225\n" +
		"hist group1.stage.hash.ns count=5 mean=1 min=1 p50=1 p90=1 p99=1 max=1\n"
	scalars, hists := statsRows(t, body)
	if got := strings.Join(scalars[0], " "); got != "name merged group0 group1 group10" {
		t.Fatalf("columns = %q, want the scopes in numeric order", got)
	}
	for _, row := range append(scalars[1:], hists[1:]...) {
		for _, f := range row[:2] {
			if strings.HasPrefix(f, "group") && strings.Contains(f, ".") {
				t.Fatalf("group prefix not stripped: %v", row)
			}
		}
	}
	// The merged (unscoped) value sits beside the three groups' values.
	if got := strings.Join(scalars[1], " "); got != "core.writes 400 90 110 200" {
		t.Fatalf("core.writes row = %q, want one merged and three grouped values", got)
	}
	if got := strings.Join(hists[1], " "); !strings.HasPrefix(got, "group1 stage.hash.ns 5 ") {
		t.Fatalf("hist row = %q, want its scope first", got)
	}
}
