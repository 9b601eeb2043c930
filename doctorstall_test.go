package fidr_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fidr"
	"fidr/internal/metrics/events"
	"fidr/internal/metrics/health"
)

// TestDoctorStall is the health plane's whole chain on one wedged
// group owner: the watchdog notices (a watchdog_stall event naming the
// probe), the recorder captures (a snapshot on disk and in
// /debug/bundle), the real `fidrcli doctor` fails and names the probe;
// then the owner lets go, the watchdog says so, and the doctor passes
// with the stall as history. Group 0's owner lock is held by a
// Maintenance closure — public API, and what a hung GC pass would be —
// that waits on a channel the test closes once it has seen all of the
// first half, so no step races a timer: the durations below set how
// often things are looked at, not what is found. The node serves no
// traffic, so nothing else can be slow enough to trip the watchdog.
func TestDoctorStall(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	fidrcli := filepath.Join(t.TempDir(), "fidrcli")
	if out, err := exec.Command(goBin, "build", "-o", fidrcli, "fidr/cmd/fidrcli").CombinedOutput(); err != nil {
		t.Fatalf("go build fidr/cmd/fidrcli: %v\n%s", err, out)
	}

	const tick = 10 * time.Millisecond
	c := testNodeConfig(t)
	c.HealthDir = filepath.Join(t.TempDir(), "health")
	c.WatchdogInterval, c.WatchdogDeadline = tick, 5*tick
	n, err := fidr.NewNode(c)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	doctor := func() (string, error) {
		out, err := exec.Command(fidrcli, "doctor", "-metrics-addr", n.MetricsAddr()).CombinedOutput()
		return string(out), err
	}
	// await looks every tick until find finds. Its deadline ends a run
	// that would otherwise never end; nothing is measured against it.
	await := func(what string, find func() bool) {
		t.Helper()
		for stop := time.Now().Add(2 * time.Minute); !find(); time.Sleep(tick) {
			if time.Now().After(stop) {
				t.Fatalf("never saw %s", what)
			}
		}
	}
	journaled := func(typ string) func() bool {
		return func() bool {
			_, body := scrape(t, n, "/events")
			evs, err := events.Decode(strings.NewReader(body))
			if err != nil {
				t.Fatalf("/events: %v", err)
			}
			for _, ev := range evs {
				if ev.Type == typ && strings.Contains(ev.Detail, "async.worker.g0") {
					return true
				}
			}
			return false
		}
	}

	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark() // before n.Close, which waits for the closure
	parked := make(chan error, 1)
	go func() {
		parked <- n.AsyncForTest().Maintenance(func(fidr.Store) error { <-release; return nil })
	}()

	await("a watchdog_stall event naming async.worker.g0", journaled(events.TypeWatchdogStall))
	var snaps []string
	await("a snapshot in /debug/bundle", func() bool {
		_, body := scrape(t, n, "/debug/bundle")
		if snaps, err = health.BundleSnapshots([]byte(body)); err != nil {
			t.Fatalf("/debug/bundle: %v", err)
		}
		return len(snaps) > 0
	})
	if !strings.Contains(snaps[0], "async_worker_g0") {
		t.Errorf("snapshot %q is not named for the stalled probe", snaps[0])
	}
	if disk, err := os.ReadDir(c.HealthDir); err != nil || len(disk) == 0 {
		t.Errorf("no snapshot under %s (err=%v)", c.HealthDir, err)
	}
	out, err := doctor()
	if err == nil {
		t.Errorf("doctor exited 0 against a wedged group owner:\n%s", out)
	}
	if !strings.Contains(out, "[FAIL] watchdog") || !strings.Contains(out, "async.worker.g0") {
		t.Errorf("doctor does not fail the watchdog check naming the probe:\n%s", out)
	}

	unpark()
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	await("a watchdog_recover event for async.worker.g0", journaled(events.TypeWatchdogRecover))
	if out, err = doctor(); err != nil {
		t.Errorf("doctor exited non-zero after the owner let go: %v\n%s", err, out)
	}
	if !strings.Contains(out, "[WARN] watchdog") {
		t.Errorf("the recovered report should carry the stall as a warning:\n%s", out)
	}
}
