package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fidr"
	"fidr/internal/metrics"
	"fidr/internal/proto"
)

// End-to-end exercise of the daemon's observability surface: build the
// real binaries, start fidrd, drive writes over the wire, and validate
// every HTTP endpoint plus the fidrcli top/slow views against it. CI's
// check-metrics step runs this test; the Prometheus page additionally
// goes through the same lexer a scraper would apply, so an encoder
// regression fails the build.

// buildBinaries compiles fidrd and fidrcli into dir.
func buildBinaries(t *testing.T, dir string) (fidrdBin, fidrcliBin string) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	fidrdBin = filepath.Join(dir, "fidrd")
	fidrcliBin = filepath.Join(dir, "fidrcli")
	for bin, pkg := range map[string]string{fidrdBin: "fidr/cmd/fidrd", fidrcliBin: "fidr/cmd/fidrcli"} {
		cmd := exec.Command(goBin, "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return fidrdBin, fidrcliBin
}

// freePort returns the address of a listener that has just been closed:
// an endpoint nothing answers on. (A daemon is never started on it; one
// picks its own ports, see startDaemonWith.)
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startDaemon launches fidrd for one architecture with a 1ns slow-trace
// floor (every early request is retained as slow).
func startDaemon(t *testing.T, bin, arch string) (addr, maddr string) {
	t.Helper()
	addr, maddr, _ = startDaemonWith(t, bin, "-arch", arch, "-slow-min", "1ns")
	return addr, maddr
}

func get(t *testing.T, maddr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + maddr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// drive writes n chunks (half duplicate content) over the protocol.
func drive(t *testing.T, addr string, n int) {
	t.Helper()
	c, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if err := c.WriteChunk(uint64(i), fidr.MakeChunk(uint64(i%(n/2)), 0.5)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

// seriesLast scrapes /metrics/series and returns each series' newest
// value by name.
func seriesLast(t *testing.T, maddr string) map[string]float64 {
	t.Helper()
	code, body := get(t, maddr, "/metrics/series")
	if code != http.StatusOK {
		t.Fatalf("/metrics/series: status %d", code)
	}
	var d metrics.SeriesDump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("/metrics/series: %v", err)
	}
	out := make(map[string]float64, len(d.Series))
	for _, se := range d.Series {
		out[se.Name] = se.Last
	}
	return out
}

func TestMetricsEndpointE2E(t *testing.T) {
	dir := t.TempDir()
	fidrdBin, fidrcliBin := buildBinaries(t, dir)
	addr, maddr := startDaemon(t, fidrdBin, "fidr")
	drive(t, addr, 128)
	time.Sleep(200 * time.Millisecond) // a few 50ms sampling ticks

	// Liveness and readiness.
	if code, _ := get(t, maddr, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz: status %d", code)
	}
	if code, _ := get(t, maddr, "/readyz"); code != http.StatusOK {
		t.Errorf("/readyz: status %d", code)
	}

	// Plain dump and Prometheus exposition; the latter must lex clean.
	if code, body := get(t, maddr, "/metrics"); code != http.StatusOK || !strings.Contains(body, "core.writes") {
		t.Errorf("/metrics: status %d, body %.80q", code, body)
	}
	code, prom := get(t, maddr, "/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=prom: status %d", code)
	}
	if err := metrics.ValidatePromText(strings.NewReader(prom)); err != nil {
		t.Errorf("prometheus exposition does not lex: %v", err)
	}

	// Sampled series carry the data-movement plane.
	last := seriesLast(t, maddr)
	if last["core.writes"] != 128 {
		t.Errorf("series core.writes = %v, want 128", last["core.writes"])
	}
	if last["pcie.p2p_bytes"] <= 0 {
		t.Errorf("FIDR moved no P2P bytes (pcie.p2p_bytes = %v)", last["pcie.p2p_bytes"])
	}

	// Recent and slow-retained views (1ns floor => every early request
	// was captured).
	if code, body := get(t, maddr, "/traces"); code != http.StatusOK || !strings.Contains(body, "write") {
		t.Errorf("/traces: status %d, body %.80q", code, body)
	}
	if code, body := get(t, maddr, "/traces/slow"); code != http.StatusOK || !strings.Contains(body, "slow request") {
		t.Errorf("/traces/slow: status %d, body %.80q", code, body)
	}

	// fidrcli against the live daemon.
	for _, args := range [][]string{
		{"top", "-metrics-addr", maddr, "-n", "1"},
		{"slow", "-metrics-addr", maddr},
		{"stats", "-metrics-addr", maddr},
	} {
		out, err := exec.Command(fidrcliBin, args...).CombinedOutput()
		if err != nil {
			t.Errorf("fidrcli %v: %v\n%s", args, err, out)
		}
		if args[0] == "top" && !strings.Contains(string(out), "device utilization") {
			t.Errorf("fidrcli top output missing utilization table:\n%s", out)
		}
	}

	// The CLI satellite: a dead endpoint must exit non-zero with a
	// pointer to the fix.
	dead := freePort(t)
	out, err := exec.Command(fidrcliBin, "stats", "-metrics-addr", dead).CombinedOutput()
	if err == nil {
		t.Errorf("fidrcli stats against dead endpoint exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "-metrics-addr") {
		t.Errorf("dead-endpoint error lacks guidance:\n%s", out)
	}
}

// TestHostDRAMPayloadInvariantE2E scrapes the acceptance-criterion
// counters from live daemons: a FIDR-mode write workload charges zero
// client-payload bytes to host DRAM, the baseline charges plenty.
func TestHostDRAMPayloadInvariantE2E(t *testing.T) {
	dir := t.TempDir()
	fidrdBin, _ := buildBinaries(t, dir)
	payload := make(map[string]float64)
	for _, arch := range []string{"fidr", "baseline"} {
		addr, maddr := startDaemon(t, fidrdBin, arch)
		drive(t, addr, 64)
		time.Sleep(200 * time.Millisecond)
		last := seriesLast(t, maddr)
		if last["hostmodel.dram_bytes"] <= 0 {
			t.Errorf("%s: hostmodel.dram_bytes = %v, want > 0 (metadata always flows)", arch, last["hostmodel.dram_bytes"])
		}
		payload[arch] = last["hostmodel.dram_payload_bytes"]
	}
	if payload["fidr"] != 0 {
		t.Errorf("FIDR writes moved %v payload bytes through host DRAM, want 0", payload["fidr"])
	}
	if payload["baseline"] <= 0 {
		t.Errorf("baseline writes moved %v payload bytes through host DRAM, want > 0", payload["baseline"])
	}
	if t.Failed() {
		t.Logf("payload bytes by arch: %v", payload)
	}
}
