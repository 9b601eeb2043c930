package main

import (
	"os"
	"strings"
	"testing"

	"fidr"
)

// TestArtifactsGolden pins every unclocked artifact at 2000 IOs: each
// "@@ name @@" section of the golden file is what fidr.RunExperiment(name,
// 2000) rendered when the file was taken. The sections are rendered here
// by one fidr.RunExperiments call, as fidrbench renders them, so the shared
// run matrix must give every artifact the table its own matrix gave. The
// tables are counts, ratios and model projections, so a difference is a
// change in behaviour, never noise; selfperf, which times this host, has
// no section. Do not regenerate the file to make a refactor pass. The
// fig12, fig14, fig15, fig16, ablation-batch, ablation-readoffload,
// ablation-readcache and scorecard sections moved once, on purpose, when
// FIDR's commit stopped charging a second LBA-table op per unique chunk.
// The ablation-scaleout section's host mem B/B at 2 and 4 groups moved
// once, on purpose, when the commit core began to run each entry's lookup,
// pack, admit and map before the next entry's lookup: each insert finds
// the bucket line its own lookup loaded, so table-cache traffic fell.
func TestArtifactsGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/artifacts_ios2000.txt")
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(string(raw), "@@ ")[1:]
	if len(sections) == 0 {
		t.Fatal("golden file has no sections")
	}
	var names, wants []string
	for _, sec := range sections {
		name, want, ok := strings.Cut(sec, " @@\n")
		if !ok {
			t.Fatalf("malformed section %.40q", sec)
		}
		names, wants = append(names, name), append(wants, want)
	}
	got := make(map[string]string, len(names))
	errs := make(map[string]error)
	err = fidr.RunExperiments(names, 2000, func(name, table string, err error) {
		got[name], errs[name] = table, err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			if err := errs[name]; err != nil {
				t.Fatal(err)
			}
			if got[name] != wants[i] {
				t.Fatalf("%s moved:\n%s\n--- want ---\n%s", name, got[name], wants[i])
			}
		})
	}
}
