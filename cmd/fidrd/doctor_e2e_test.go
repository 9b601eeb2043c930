package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// End-to-end exercise of the runtime health plane, run by CI's
// check-doctor step: boot a fidrd with the snapshot recorder armed and a
// tight watchdog, wedge async worker 0 through the -debug-hooks
// endpoint, and assert the full chain fires — watchdog_stall event with
// the probe name, an on-disk snapshot served through /debug/bundle, a
// failing `fidrcli doctor` verdict while stalled, and a healthy report
// after the worker recovers.

// pollEvents scrapes /events until an event of the wanted type appears
// or the deadline passes, returning whether it was seen and its detail.
func pollEvents(t *testing.T, maddr, typ string, deadline time.Duration) (bool, string) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		for _, ev := range eventsScrape(t, maddr, "") {
			if ev.Type == typ {
				return true, ev.Detail
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false, ""
}

// bundleEntries fetches /debug/bundle and returns the tarball's entry
// names, or nil while the recorder has nothing captured yet.
func bundleEntries(t *testing.T, maddr string) []string {
	t.Helper()
	code, body := get(t, maddr, "/debug/bundle")
	if code != http.StatusOK {
		t.Fatalf("/debug/bundle: status %d: %s", code, body)
	}
	gz, err := gzip.NewReader(bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("/debug/bundle gzip: %v", err)
	}
	defer gz.Close()
	var names []string
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("/debug/bundle tar: %v", err)
		}
		names = append(names, hdr.Name)
	}
	return names
}

func TestDoctorE2E(t *testing.T) {
	dir := t.TempDir()
	fidrdBin, fidrcliBin := buildBinaries(t, dir)
	healthDir := filepath.Join(dir, "health")

	// Tight watchdog so the injected stall trips within a second; the
	// 4s stall leaves room to observe the failing state before the
	// worker wakes up and the recover edge lands.
	addr, maddr, _ := startDaemonWith(t, fidrdBin,
		"-debug-hooks", "-health-dir", healthDir,
		"-watchdog-interval", "50ms", "-watchdog-deadline", "250ms")
	drive(t, addr, 64)

	// Healthy daemon first: doctor must pass before any fault is
	// injected.
	out, err := exec.Command(fidrcliBin, "doctor", "-metrics-addr", maddr).CombinedOutput()
	if err != nil {
		t.Fatalf("doctor on healthy daemon exited non-zero: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "watchdog") {
		t.Errorf("doctor report missing watchdog check:\n%s", out)
	}

	// Wedge async worker 0. The heartbeat goes stale past the 250ms
	// deadline, so the watchdog must emit a stall event naming the
	// worker probe well before the stall ends.
	if code, body := get(t, maddr, "/debug/stall?d=4s"); code != http.StatusOK {
		t.Fatalf("/debug/stall: status %d: %s", code, body)
	}
	stalled, detail := pollEvents(t, maddr, "watchdog_stall", 2*time.Second)
	if !stalled {
		t.Fatal("no watchdog_stall event within 2s of injected stall")
	}
	if !strings.Contains(detail, "async.worker.g0") {
		t.Errorf("stall event detail %q does not name the stalled worker", detail)
	}

	// The stall must also have tripped the snapshot recorder: an on-disk
	// snapshot under -health-dir, served through /debug/bundle with the
	// core artifacts inside. Capture runs off the watchdog goroutine, so
	// poll briefly.
	var entries []string
	for stop := time.Now().Add(3 * time.Second); time.Now().Before(stop); {
		if entries = bundleEntries(t, maddr); len(entries) > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(entries) == 0 {
		t.Fatal("/debug/bundle empty: snapshot recorder captured nothing")
	}
	joined := strings.Join(entries, "\n")
	for _, want := range []string{"async_worker_g0", "meta.json", "goroutines.txt", "metrics.txt", "events.jsonl"} {
		if !strings.Contains(joined, want) {
			t.Errorf("bundle missing %q:\n%s", want, joined)
		}
	}
	if disk, err := os.ReadDir(healthDir); err != nil || len(disk) == 0 {
		t.Errorf("health dir %s has no snapshots on disk (err=%v)", healthDir, err)
	}

	// While the worker is wedged, doctor must flag it and exit non-zero.
	out, err = exec.Command(fidrcliBin, "doctor", "-metrics-addr", maddr).CombinedOutput()
	if err == nil {
		t.Fatalf("doctor exited 0 against a stalled daemon:\n%s", out)
	}
	if !strings.Contains(string(out), "[FAIL] watchdog") {
		t.Errorf("doctor report does not FAIL the watchdog check:\n%s", out)
	}
	if !strings.Contains(string(out), "async.worker.g0") {
		t.Errorf("doctor report does not name the stalled probe:\n%s", out)
	}

	// The worker wakes up at the end of the stall; the watchdog must
	// emit the recover edge and doctor must go back to exit 0 (the
	// stall history downgrades to a warning, not a failure).
	recovered, _ := pollEvents(t, maddr, "watchdog_recover", 8*time.Second)
	if !recovered {
		t.Fatal("no watchdog_recover event after the stall elapsed")
	}
	drive(t, addr, 16) // queue drains again
	out, err = exec.Command(fidrcliBin, "doctor", "-metrics-addr", maddr).CombinedOutput()
	if err != nil {
		t.Fatalf("doctor exited non-zero after recovery: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "warning") {
		t.Errorf("recovered report should carry the stall-history warning:\n%s", out)
	}
}

// TestDoctorDisabledRecorderE2E runs doctor against a daemon without
// -health-dir: /debug/bundle answers 503 with a hint, and doctor
// degrades to a warning instead of failing.
func TestDoctorDisabledRecorderE2E(t *testing.T) {
	dir := t.TempDir()
	fidrdBin, fidrcliBin := buildBinaries(t, dir)
	addr, maddr, _ := startDaemonWith(t, fidrdBin)
	drive(t, addr, 32)

	code, body := get(t, maddr, "/debug/bundle")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "-health-dir") {
		t.Errorf("/debug/bundle without recorder: status %d, body %q", code, body)
	}

	out, err := exec.Command(fidrcliBin, "doctor", "-metrics-addr", maddr).CombinedOutput()
	if err != nil {
		t.Fatalf("doctor exited non-zero without recorder: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "disabled") {
		t.Errorf("doctor report should note the disabled recorder:\n%s", out)
	}
}
