package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fidr"
	"fidr/internal/metrics/events"
)

// End-to-end exercise of the capacity plane: a cluster daemon takes
// mixed dup/unique writes and a GC pass through the real CLI, and the
// attribution equation must balance on a live scrape; a durable daemon's
// checkpoint, WAL truncation and recovery must land in /events. CI's
// check-capacity step runs this test.

// looseSLOSpec keeps the stock objective names but moves every threshold
// to a minute. SLOs are evaluated on wall-clock latency, so under the
// stock 2ms write objective a healthy daemon on a contended box
// breaches, and `fidrcli doctor` fails for a reason no test injected.
// Every e2e daemon runs with this spec; tests that need a failing
// doctor get one through the watchdog.
const looseSLOSpec = "write-h:req.write.ns:1m:99.9,write-m:req.write.ns:1m:99," +
	"write-l:req.write.ns:1m:95,read:req.read.ns:1m:99"

// startDaemonWith launches fidrd with extra flags on ports the daemon
// picks itself and returns the two addresses it logs once they are
// bound. NewNode binds both and accepts on the protocol port before
// either line is printed, so having read both is being ready: there is
// no port to lose between reserving and binding it, and no poll.
func startDaemonWith(t *testing.T, bin string, extra ...string) (addr, maddr string, cmd *exec.Cmd) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-series-interval", "50ms",
		"-slo-spec", looseSLOSpec}, extra...)
	cmd = exec.Command(bin, args...)
	// An *os.File is handed to the child as it is: no copying goroutine
	// for cmd.Wait to wait on, and the read end sees EOF when fidrd exits.
	logR, logW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = logW
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logW.Close()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	})

	// The reader outlives start-up so the child never blocks on a full
	// pipe; what it reads before both addresses are known is kept for
	// the failure message.
	type started struct{ addr, maddr, log string }
	up := make(chan started, 1)
	go func() {
		defer logR.Close()
		var s started
		sc := bufio.NewScanner(logR)
		for (s.addr == "" || s.maddr == "") && sc.Scan() {
			line := sc.Text()
			s.log += line + "\n"
			if _, after, ok := strings.Cut(line, "listening on "); ok {
				s.addr = after
			}
			if _, after, ok := strings.Cut(line, "metrics on http://"); ok {
				s.maddr = strings.TrimSuffix(after, "/metrics")
			}
		}
		up <- s
		io.Copy(io.Discard, logR)
	}()
	select {
	case s := <-up:
		if s.addr == "" || s.maddr == "" {
			t.Fatalf("fidrd %v exited before it was listening:\n%s", extra, s.log)
		}
		return s.addr, s.maddr, cmd
	case <-time.After(2 * time.Minute):
		// A backstop, not a speed limit: the child neither printed its
		// addresses nor exited.
		t.Fatalf("fidrd %v is neither up nor gone", extra)
		return "", "", nil
	}
}

// chunkFile writes n chunks to a file, seeded so seedAt(i) repeats make
// duplicate content.
func chunkFile(t *testing.T, path string, n int, seedAt func(i int) uint64) {
	t.Helper()
	buf := make([]byte, 0, n*fidr.ChunkSize)
	for i := 0; i < n; i++ {
		buf = append(buf, fidr.MakeChunk(seedAt(i), 0.5)...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// capacityScrape fetches and decodes /capacity.
func capacityScrape(t *testing.T, maddr, query string) fidr.CapacityReport {
	t.Helper()
	code, body := get(t, maddr, "/capacity"+query)
	if code != http.StatusOK {
		t.Fatalf("/capacity%s: status %d: %s", query, code, body)
	}
	var r fidr.CapacityReport
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatalf("/capacity: %v", err)
	}
	return r
}

// eventsScrape fetches and decodes the /events JSONL.
func eventsScrape(t *testing.T, maddr, query string) []fidr.Event {
	t.Helper()
	code, body := get(t, maddr, "/events"+query)
	if code != http.StatusOK {
		t.Fatalf("/events%s: status %d", query, code)
	}
	evs, err := events.Decode(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/events%s: %v", query, err)
	}
	return evs
}

func countByType(evs []fidr.Event, typ string) int {
	n := 0
	for _, ev := range evs {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

func TestCapacityE2E(t *testing.T) {
	dir := t.TempDir()
	fidrdBin, fidrcliBin := buildBinaries(t, dir)

	cli := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(fidrcliBin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("fidrcli %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Phase 1: a two-group cluster under mixed dup/unique CLI writes.
	// Small containers and batches so the modest workload seals several
	// containers per group and overwrites create real GC candidates.
	addr, maddr, _ := startDaemonWith(t, fidrdBin, "-groups", "2",
		"-container-size", "65536", "-batch", "16")
	const n = 192
	fill := filepath.Join(dir, "fill.bin")
	chunkFile(t, fill, n, func(i int) uint64 { return uint64(i % (n / 2)) }) // half duplicates
	cli("put", "-addr", addr, "-lba", "0", "-file", fill)
	over := filepath.Join(dir, "overwrite.bin")
	chunkFile(t, over, 3*n/4, func(i int) uint64 { return uint64(900000 + i) }) // all unique
	cli("put", "-addr", addr, "-lba", "0", "-file", over)

	// Attribution balances on the live scrape: every logical byte is in
	// exactly one bucket, with the in-flight slack called out explicitly
	// and bounded by the groups' unprocessed batch buffers.
	r := capacityScrape(t, maddr, "")
	wantLogical := uint64(n+3*n/4) * uint64(fidr.ChunkSize)
	if r.LogicalWriteBytes != wantLogical {
		t.Errorf("logical bytes %d, want %d", r.LogicalWriteBytes, wantLogical)
	}
	if got := r.DedupSavedBytes + r.CompressionSavedBytes + r.StoredBytes + r.UnattributedBytes; got != r.LogicalWriteBytes {
		t.Errorf("attribution unbalanced on live scrape: %d != %d", got, r.LogicalWriteBytes)
	}
	if slackBound := uint64(2 * 16 * fidr.ChunkSize); r.UnattributedBytes > slackBound {
		t.Errorf("in-flight slack %d exceeds two groups' batch buffers (%d)", r.UnattributedBytes, slackBound)
	}
	if r.DedupSavedBytes == 0 || r.CompressionSavedBytes == 0 {
		t.Errorf("expected both dedup and compression savings: %+v", r)
	}
	if r.ReductionRatio <= 1 {
		t.Errorf("reduction ratio %v on a reducible stream", r.ReductionRatio)
	}
	if r.GarbageBytes == 0 || !r.GC.Recommended {
		t.Errorf("overwrites produced no GC pressure: garbage=%d gc=%+v", r.GarbageBytes, r.GC)
	}

	// The heatmap is the same ledger re-bucketed: dead bytes reconcile.
	code, hmBody := get(t, maddr, "/capacity/containers")
	if code != http.StatusOK {
		t.Fatalf("/capacity/containers: status %d", code)
	}
	var hm fidr.ContainerHeatmap
	if err := json.Unmarshal([]byte(hmBody), &hm); err != nil {
		t.Fatalf("/capacity/containers: %v", err)
	}
	if hm.DeadBytes != r.GarbageBytes {
		t.Errorf("heatmap dead %d != ledger garbage %d", hm.DeadBytes, r.GarbageBytes)
	}
	var bucketDead uint64
	for _, b := range hm.Buckets {
		bucketDead += b.DeadBytes
	}
	if bucketDead != hm.DeadBytes {
		t.Errorf("heatmap buckets sum %d != header %d", bucketDead, hm.DeadBytes)
	}

	// Threshold validation on the endpoint.
	if code, _ := get(t, maddr, "/capacity?threshold=1.5"); code != http.StatusBadRequest {
		t.Errorf("/capacity?threshold=1.5: status %d, want 400", code)
	}

	// GC through the real CLI, then re-scrape: the garbage the advice
	// projected is gone and both groups journaled their pass.
	before := r
	gcOut := cli("gc", "-addr", addr, "-threshold", "0.25")
	if !strings.Contains(gcOut, "compacted") || !strings.Contains(gcOut, "reclaimed") {
		t.Errorf("fidrcli gc output: %q", gcOut)
	}
	r = capacityScrape(t, maddr, "")
	if r.GarbageBytes >= before.GarbageBytes {
		t.Errorf("garbage did not shrink after CLI GC: %d -> %d", before.GarbageBytes, r.GarbageBytes)
	}
	if r.ReclaimedDeadBytes == 0 || r.RetiredContainers == 0 {
		t.Errorf("GC left no trace in the ledger: %+v", r)
	}
	evs := eventsScrape(t, maddr, "")
	if got := countByType(evs, "gc_run"); got != 2 {
		t.Errorf("journal has %d gc_run events, want one per group", got)
	}
	groupsSeen := map[int]bool{}
	var lastSeq uint64
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Errorf("event sequence not monotonic: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type == "gc_run" {
			groupsSeen[ev.Group] = true
		}
	}
	if len(groupsSeen) != 2 {
		t.Errorf("gc_run events cover groups %v, want both", groupsSeen)
	}
	if got := eventsScrape(t, maddr, "?type=gc_run"); len(got) != 2 {
		t.Errorf("/events?type=gc_run returned %d events", len(got))
	}

	// The dashboards render against the live daemon.
	capOut := cli("capacity", "-metrics-addr", maddr)
	for _, want := range []string{"reduction attribution", "gc advice", "container heatmap", "dedup saved"} {
		if !strings.Contains(capOut, want) {
			t.Errorf("fidrcli capacity output missing %q:\n%s", want, capOut)
		}
	}
	evOut := cli("events", "-metrics-addr", maddr, "-type", "gc_run")
	if !strings.Contains(evOut, "gc_run") || !strings.Contains(evOut, "bytes_reclaimed=") {
		t.Errorf("fidrcli events output: %q", evOut)
	}

	// Phase 2: a durable daemon's checkpoint, truncation and recovery
	// land in the journal.
	dataFile := filepath.Join(dir, "data.img")
	tableFile := filepath.Join(dir, "table.img")
	walFile := filepath.Join(dir, "wal.log")
	dAddr, dMaddr, dCmd := startDaemonWith(t, fidrdBin,
		"-data-file", dataFile, "-table-file", tableFile, "-wal-file", walFile)
	drive(t, dAddr, 96)
	cli("checkpoint", "-addr", dAddr)
	evs = eventsScrape(t, dMaddr, "")
	if countByType(evs, "checkpoint") == 0 {
		t.Errorf("no checkpoint event after CLI checkpoint: %+v", evs)
	}
	if countByType(evs, "wal_truncate") == 0 {
		t.Errorf("no wal_truncate event after CLI checkpoint: %+v", evs)
	}

	// Crash-restart with -recover: the recovery lands in a fresh journal.
	dCmd.Process.Signal(syscall.SIGTERM)
	dCmd.Wait()
	_, rMaddr, _ := startDaemonWith(t, fidrdBin,
		"-data-file", dataFile, "-table-file", tableFile, "-wal-file", walFile, "-recover")
	evs = eventsScrape(t, rMaddr, "")
	if countByType(evs, "recovery") != 1 {
		t.Errorf("recovered daemon journaled %d recovery events, want 1: %+v",
			countByType(evs, "recovery"), evs)
	}
	for _, ev := range evs {
		if ev.Type == "recovery" {
			if _, ok := ev.Fields["replayed_records"]; !ok {
				t.Errorf("recovery event lacks replay accounting: %+v", ev)
			}
		}
	}
}
