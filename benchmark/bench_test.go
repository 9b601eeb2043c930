package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test asserts structure and correctness only, never a
// wall-clock value: it must stay deterministic on a loaded 2-CPU box.

func smokeOptions(t *testing.T) options {
	dir := t.TempDir()
	return options{workload: "all", seed: 7, ios: 2000, passes: 1, setups: 1,
		outDir: filepath.Join(dir, "out"), workDir: filepath.Join(dir, "work")}
}

func TestFullReportSmoke(t *testing.T) {
	o := smokeOptions(t)
	var out bytes.Buffer
	if err := runAll(o, &out); err != nil {
		t.Fatalf("runAll: %v\n%s", err, out.String())
	}
	rep, err := loadReport(filepath.Join(o.outDir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.GOMAXPROCS < 1 || rep.Env.GoVersion == "" || rep.Env.Seed != o.seed {
		t.Errorf("environment stamp incomplete: %+v", rep.Env)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for i, wr := range rep.Workloads {
		if wr.Name != workloads[i].Name {
			t.Errorf("workload %d is %q, want %q", i, wr.Name, workloads[i].Name)
		}
		if wr.Failed != 0 || wr.EndToEnd["failed_ops_share"].Median != 0 {
			t.Errorf("%s: %d failed operations: %v", wr.Name, wr.Failed, wr.Notes)
		}
		if wr.Passes != 1 || wr.TracedPasses != 1 {
			t.Errorf("%s: %d passes, %d traced, want 1 and 1", wr.Name, wr.Passes, wr.TracedPasses)
		}
		// Every metric that applies appears exactly once (maps cannot
		// hold a name twice), and none that does not apply appears.
		for _, d := range endToEnd {
			if _, ok := wr.EndToEnd[d.Name]; ok != d.appliesTo(wr.Name) {
				t.Errorf("%s: end-to-end metric %s present=%v, applies=%v", wr.Name, d.Name, ok, d.appliesTo(wr.Name))
			}
		}
		for _, d := range perLayer {
			if _, ok := wr.PerLayer[d.Name]; ok != d.appliesTo(wr.Name) {
				t.Errorf("%s: per-layer metric %s present=%v, applies=%v", wr.Name, d.Name, ok, d.appliesTo(wr.Name))
			}
		}
		if len(wr.EndToEnd)+len(wr.PerLayer) == 0 {
			t.Errorf("%s: no metrics", wr.Name)
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+wr.Name+".jsonl")); err != nil {
			t.Errorf("%s: span file: %v", wr.Name, err)
		}
		if wr.Name != "durable-m" && wr.Name != "wire-mixed" && wr.PerLayer["model.host_dram_bytes_per_client_byte"] <= 0 {
			t.Errorf("%s: modeled ledger value missing", wr.Name)
		}
	}
	if !strings.Contains(out.String(), "throughput_mbps") || !strings.Contains(out.String(), "roofline.glue_ratio") {
		t.Errorf("printed report lacks metric names:\n%s", out.String())
	}

	// A report compared with itself regresses nowhere.
	var cmp bytes.Buffer
	path := filepath.Join(o.outDir, "report.json")
	regressed, err := compareReports(&cmp, path, path)
	if err != nil || regressed {
		t.Errorf("self-compare: regressed=%v err=%v\n%s", regressed, err, cmp.String())
	}
	for _, w := range workloads {
		if !strings.Contains(cmp.String(), w.Name) {
			t.Errorf("compare output has no row for %s", w.Name)
		}
	}
}

// TestVerdict pins the compare rule: verdicts come from per-report
// medians, and only with at least ten reports a side.
func TestVerdict(t *testing.T) {
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	calm := []float64{100, 101, 99, 102, 98, 100.5, 99.5, 101.5, 98.5, 100.2}
	noisy := []float64{100, 140, 70, 150, 65, 100, 135, 75, 145, 60}
	for _, c := range []struct {
		name, better string
		bound        float64
		old, cur     []float64
		want         string
	}{
		{"one report a side", "lower", 0.10, calm[:1], scale(calm[:1], 2), "unresolved (fewer than 10 reports a side)"},
		{"same values", "lower", 0.10, calm, calm, "within bound"},
		{"worse inside the bound", "lower", 0.10, calm, scale(calm, 1.05), "within bound"},
		{"worse beyond the bound", "lower", 0.10, calm, scale(calm, 1.2), "REGRESSED"},
		{"lower throughput", "higher", 0.10, calm, scale(calm, 0.8), "REGRESSED"},
		{"gain beyond the parent's spread", "lower", 0.10, calm, scale(calm, 0.9), "improved"},
		{"gain inside the parent's spread", "lower", 0.10, calm, scale(calm, 0.995), "within bound"},
		{"spread beyond the bound", "lower", 0.10, noisy, scale(noisy, 1.3), "unresolved (spread exceeds bound)"},
		{"noisy, every run better, gain inside the parent's spread", "lower", 0.10, noisy, scale(noisy, 0.3), "within bound"},
		{"noisy, every run better, gain beyond it", "lower", 0.10, noisy, scale(noisy, 0.1), "improved"},
		{"absolute bound, one report", "lower", 0, []float64{0}, []float64{0.001}, "REGRESSED"},
		{"absolute bound, equal", "lower", 0, []float64{0}, []float64{0}, "within bound"},
	} {
		if _, _, _, got := verdict(c.better, c.bound, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSpansNest checks the traced wire run's span file: every request
// has proto.rtt, async.call and core.call spans, each inside its parent.
func TestSpansNest(t *testing.T) {
	o := smokeOptions(t)
	w, _ := findWorkload("wire-mixed")
	if _, err := runWorkload(o, w, true); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(o.outDir, "trace-wire-mixed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type rec struct {
		Req        int
		Name       string
		Start, End int64
	}
	spans := map[int]map[string]rec{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line struct {
			Req   int    `json:"req"`
			Name  string `json:"name"`
			Start int64  `json:"start_ns"`
			End   int64  `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if line.Req < 0 || strings.HasPrefix(line.Name, "blockcomp.") {
			continue
		}
		if spans[line.Req] == nil {
			spans[line.Req] = map[string]rec{}
		}
		spans[line.Req][line.Name] = rec{line.Req, line.Name, line.Start, line.End}
	}
	if len(spans) != o.ios {
		t.Fatalf("spans for %d requests, want %d", len(spans), o.ios)
	}
	for req, s := range spans {
		rtt, as, co := s["proto.rtt"], s["async.call"], s["core.call"]
		if rtt.Name == "" || as.Name == "" || co.Name == "" {
			t.Fatalf("request %d lacks a span: %+v", req, s)
		}
		if as.Start < rtt.Start || as.End > rtt.End || co.Start < as.Start || co.End > as.End {
			t.Fatalf("request %d: spans do not nest: %+v", req, s)
		}
		protoSelf := (rtt.End - rtt.Start) - (as.End - as.Start)
		asyncSelf := (as.End - as.Start) - (co.End - co.Start)
		if protoSelf+asyncSelf+(co.End-co.Start) != rtt.End-rtt.Start {
			t.Fatalf("request %d: self times do not sum to the round trip", req)
		}
	}
}

// TestDriverLine checks the last line the driver reads, both ways.
func TestDriverLine(t *testing.T) {
	for _, trace := range []int{0, 1} {
		o := smokeOptions(t)
		o.workload, o.trace = "read-mixed", trace
		var out bytes.Buffer
		if err := runOne(o, &out); err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < o.ios {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		want := map[string]string{}
		for _, d := range endToEnd {
			if trace == 0 && d.Driver {
				want[d.Name] = d.Unit
			}
		}
		for _, d := range driverPerLayer() {
			if trace == 1 {
				want[d.Name] = d.Unit
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("trace %d: metric %s: got %+v (present=%v), want unit %s", trace, name, got, ok, unit)
			}
		}
		if trace == 0 {
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", name, m.Value)
				}
			}
		}
	}
}

// TestCorruptOracle shows the oracle is live: pointing one entry at the
// wrong payload must fail the run.
func TestCorruptOracle(t *testing.T) {
	o := smokeOptions(t)
	o.workload, o.corruptOracle = "read-mixed", true
	var out bytes.Buffer
	if err := runOne(o, &out); err == nil {
		t.Fatalf("run with a corrupted oracle succeeded:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line does not say correct=false:\n%s", out.String())
	}
}

// TestManifestMatches keeps BENCHMARK.json and the metric tables in step.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var m struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var listed []workloadSpec
	for _, w := range workloads {
		if w.Driver {
			listed = append(listed, w)
		}
	}
	if len(m.Workloads) != len(listed) {
		t.Fatalf("manifest has %d workloads, want %d", len(m.Workloads), len(listed))
	}
	for i, w := range listed {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("manifest workload %d = %+v, want %s", i, m.Workloads[i], w.Name)
		}
	}
	var driver []metricDef
	for _, d := range endToEnd {
		if d.Driver {
			driver = append(driver, d)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("manifest has %d %s metrics, want %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounds && g.Bound != d.Bound) {
				t.Errorf("manifest %s metric %d = %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end-to-end", m.EndToEnd, driver, true)
	check("per-layer", m.PerLayer, driverPerLayer(), false)
}
