package fidr_test

import (
	"bytes"
	"strings"
	"testing"

	"fidr"
)

func TestFacadeServerRoundTrip(t *testing.T) {
	srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
	if err != nil {
		t.Fatal(err)
	}
	chunk := fidr.MakeChunk(7, 0.5)
	if len(chunk) != fidr.ChunkSize {
		t.Fatalf("chunk size %d", len(chunk))
	}
	if err := srv.Write(1, chunk); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Read(1)
	if err != nil || !bytes.Equal(got, chunk) {
		t.Fatal("facade round trip failed")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	for _, p := range []fidr.Workload{fidr.WriteH(100), fidr.WriteM(100), fidr.WriteL(100), fidr.ReadMixed(100)} {
		gen, err := fidr.NewWorkload(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		n := 0
		for {
			if _, ok := gen.Next(); !ok {
				break
			}
			n++
		}
		if n != 100 {
			t.Fatalf("%s: generated %d", p.Name, n)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	names := fidr.Experiments()
	if len(names) < 15 {
		t.Fatalf("only %d experiments registered", len(names))
	}
	// All 15 paper artifacts present, and the three extension studies.
	for _, want := range []string{"fig3", "fig4", "fig5", "table1", "table2", "table3",
		"fig11", "fig12", "fig13", "fig14", "latency", "table4", "table5", "fig15", "fig16",
		"cdc", "capacity", "archival"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := fidr.RunExperiment("bogus", 0); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentCheapOnes(t *testing.T) {
	// The cheap artifacts run quickly enough for unit tests; the rest
	// are covered by internal/experiments tests and the bench harness.
	for _, name := range []string{"latency", "table4"} {
		out, err := fidr.RunExperiment(name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "==") {
			t.Fatalf("%s: no table rendered:\n%s", name, out)
		}
	}
	out, err := fidr.RunExperiment("fig3", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 3") {
		t.Fatal("fig3 table missing title")
	}
}

func TestMakeChunkDeterministic(t *testing.T) {
	if !bytes.Equal(fidr.MakeChunk(1, 0.5), fidr.MakeChunk(1, 0.5)) {
		t.Fatal("MakeChunk not deterministic")
	}
	if bytes.Equal(fidr.MakeChunk(1, 0.5), fidr.MakeChunk(2, 0.5)) {
		t.Fatal("MakeChunk ignores seed")
	}
}
