package main

import (
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end exercise of the runtime health plane on the real binaries,
// run by CI's check-doctor step. What needs a stalled group — watchdog
// trip, snapshot capture, a failing then recovered doctor — is held by
// a channel in process (fidr's TestDoctorStall); the daemon has no
// fault-injection surface. Here: the flags reach the planes, and
// `fidrcli doctor` reads all four of a healthy daemon's endpoints.

// TestDoctorE2E boots fidrd with the snapshot recorder armed and a
// quick watchdog, drives traffic, and runs the doctor: the checks run,
// none fails, and the snapshot check sees an armed, empty ring.
func TestDoctorE2E(t *testing.T) {
	dir := t.TempDir()
	fidrdBin, fidrcliBin := buildBinaries(t, dir)
	addr, maddr, _ := startDaemonWith(t, fidrdBin,
		"-health-dir", filepath.Join(dir, "health"),
		"-watchdog-interval", "50ms", "-watchdog-deadline", "30s")
	drive(t, addr, 64)

	if code, body := get(t, maddr, "/debug/bundle"); code != http.StatusOK {
		t.Errorf("/debug/bundle with the recorder armed: status %d: %s", code, body)
	}
	out, err := exec.Command(fidrcliBin, "doctor", "-metrics-addr", maddr).CombinedOutput()
	if err != nil {
		t.Fatalf("doctor on healthy daemon exited non-zero: %v\n%s", err, out)
	}
	for _, want := range []string{"watchdog", "queues", "snapshot recorder armed"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("doctor report lacks %q:\n%s", want, out)
		}
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
