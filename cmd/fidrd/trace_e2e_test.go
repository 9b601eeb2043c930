package main

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fidr"
	"fidr/internal/metrics"
)

// End-to-end exercise of the distributed-tracing plane: a real cluster
// daemon (2 groups, group-local WALs), traced writes issued by the real
// CLI, and the returned trace IDs resolved back to span trees that
// cover every layer — proto listener, async queue, core request, batch
// pipeline, WAL fsync. CI's check-trace step runs this test.

var traceLineRe = regexp.MustCompile(`(?m)^trace ([0-9a-f]{16})\b`)

// slowTraceRe takes the trace column, the last of a /traces/slow row.
var slowTraceRe = regexp.MustCompile(`(?m)\b([0-9a-f]{16})\s*$`)

func TestTraceE2E(t *testing.T) {
	dir := t.TempDir()
	fidrdBin, fidrcliBin := buildBinaries(t, dir)
	// Small batches so every CLI put batch tips several accelerator
	// batches, putting hash/compress/WAL spans inside the wire trace.
	addr, maddr, _ := startDaemonWith(t, fidrdBin, "-arch", "fidr", "-slow-min", "1ns",
		"-groups", "2", "-batch", "4", "-wal-file", filepath.Join(dir, "wal"))

	// The daemon opened one WAL per group.
	for _, g := range []string{"wal.g0", "wal.g1"} {
		if _, err := os.Stat(filepath.Join(dir, g)); err != nil {
			t.Fatalf("group-local WAL missing: %v", err)
		}
	}

	// 64 chunks with some duplicate content, via the real CLI with
	// tracing on: one trace ID per 32-chunk wire batch.
	input := filepath.Join(dir, "input.bin")
	var blob []byte
	for i := 0; i < 64; i++ {
		blob = append(blob, fidr.MakeChunk(uint64(i%24), 0.5)...)
	}
	if err := os.WriteFile(input, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(fidrcliBin, "put",
		"-addr", addr, "-file", input, "-traced").CombinedOutput()
	if err != nil {
		t.Fatalf("fidrcli put -traced: %v\n%s", err, out)
	}
	ids := traceLineRe.FindAllStringSubmatch(string(out), -1)
	if len(ids) != 2 {
		t.Fatalf("expected 2 trace IDs from 64 chunks, got %d:\n%s", len(ids), out)
	}

	// Acceptance criterion: the returned trace ID resolves to a span
	// tree covering proto -> async queue -> core -> batch -> WAL.
	id := ids[0][1]
	code, tree := get(t, maddr, "/traces/spans?id="+id)
	if code != http.StatusOK {
		t.Fatalf("/traces/spans?id=%s: status %d: %s", id, code, tree)
	}
	for _, stage := range []string{
		"proto.write_batch", "async.queue", "core.awrite",
		"core.batch", "hash", "wal_fsync",
	} {
		if !strings.Contains(tree, stage) {
			t.Errorf("span tree missing %q:\n%s", stage, tree)
		}
	}

	// The same tree through the CLI verb.
	out, err = exec.Command(fidrcliBin, "trace", "-metrics-addr", maddr, id).CombinedOutput()
	if err != nil {
		t.Fatalf("fidrcli trace %s: %v\n%s", id, err, out)
	}
	if !strings.Contains(string(out), "async.queue") || !strings.Contains(string(out), "wal_fsync") {
		t.Errorf("fidrcli trace output incomplete:\n%s", out)
	}

	// Unknown and malformed IDs fail with actionable errors.
	out, err = exec.Command(fidrcliBin, "trace", "-metrics-addr", maddr, "deadbeefdeadbeef").CombinedOutput()
	if err == nil {
		t.Errorf("fidrcli trace of unknown ID exited 0:\n%s", out)
	} else if !strings.Contains(string(out), "not found") {
		t.Errorf("unknown-ID error lacks explanation:\n%s", out)
	}
	out, err = exec.Command(fidrcliBin, "trace", "-metrics-addr", maddr, "not-hex").CombinedOutput()
	if err == nil {
		t.Errorf("fidrcli trace of malformed ID exited 0:\n%s", out)
	} else if !strings.Contains(string(out), "bad trace ID") {
		t.Errorf("malformed-ID error lacks explanation:\n%s", out)
	}

	// The p99-to-trace jump: with -slow-min 1ns every request is kept on
	// /traces/slow, and an ID taken from there resolves to a span tree.
	code, slow := get(t, maddr, "/traces/slow")
	if code != http.StatusOK {
		t.Fatalf("/traces/slow: status %d", code)
	}
	m := slowTraceRe.FindStringSubmatch(slow)
	if m == nil {
		t.Fatalf("no trace ID on /traces/slow:\n%.2000s", slow)
	}
	if code, body := get(t, maddr, "/traces/spans?id="+m[1]); code != http.StatusOK {
		t.Errorf("slow trace %s does not resolve: status %d: %s", m[1], code, body)
	}

	// The Prometheus page still lexes and carries no trace IDs.
	code, prom := get(t, maddr, "/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=prom: status %d", code)
	}
	if err := metrics.ValidatePromText(strings.NewReader(prom)); err != nil {
		t.Errorf("exposition does not lex: %v", err)
	}
	if strings.Contains(prom, " # {") {
		t.Errorf("exposition carries a sample suffix:\n%.2000s", prom)
	}

	// SLO plane: JSON endpoint and CLI dashboard.
	time.Sleep(150 * time.Millisecond) // a few SLO sampling ticks
	code, body := get(t, maddr, "/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo: status %d", code)
	}
	var d metrics.SLODump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("/slo JSON: %v", err)
	}
	if len(d.Objectives) != 4 {
		t.Errorf("/slo has %d objectives, want the 4 of the test spec", len(d.Objectives))
	}
	for _, o := range d.Objectives {
		if o.BurnFast < 0 || o.BudgetRemaining > 1 {
			t.Errorf("objective %s has nonsense status: %+v", o.Name, o)
		}
	}
	out, err = exec.Command(fidrcliBin, "slo", "-metrics-addr", maddr).CombinedOutput()
	if err != nil {
		t.Fatalf("fidrcli slo: %v\n%s", err, out)
	}
	for _, want := range []string{"write-h", "read", "budget left"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("fidrcli slo output missing %q:\n%s", want, out)
		}
	}
}
