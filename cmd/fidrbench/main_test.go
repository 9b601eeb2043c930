package main

import (
	"os"
	"strings"
	"testing"

	"fidr"
)

// TestArtifactsGolden pins every unclocked artifact at 2000 IOs: each
// "@@ name @@" section of the golden file is what fidr.RunExperiment(name,
// 2000) rendered when the file was taken. The tables are counts, ratios
// and model projections, so a difference is a change in behaviour, never
// noise; selfperf, which times this host, has no section. Do not
// regenerate the file to make a refactor pass.
func TestArtifactsGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/artifacts_ios2000.txt")
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(string(raw), "@@ ")[1:]
	if len(sections) == 0 {
		t.Fatal("golden file has no sections")
	}
	for _, sec := range sections {
		name, want, ok := strings.Cut(sec, " @@\n")
		if !ok {
			t.Fatalf("malformed section %.40q", sec)
		}
		t.Run(name, func(t *testing.T) {
			got, err := fidr.RunExperiment(name, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s moved:\n%s\n--- want ---\n%s", name, got, want)
			}
		})
	}
}
