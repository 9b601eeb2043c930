package health

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fidr/internal/metrics"
	"fidr/internal/metrics/events"
)

func testRecorder(t *testing.T, opt RecorderOptions) *Recorder {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	r, err := NewRecorder(opt)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	return r
}

// TestRecorderCapture triggers one snapshot and checks every artifact
// lands: meta.json with the reason and trace, a goroutine dump, the
// metrics snapshot, the journal tail, and the slow-trace dump.
func TestRecorderCapture(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("core.writes").Add(42)
	j := events.NewJournal(8)
	j.Append(events.Event{Type: events.TypeGCRun, Detail: "seed"})

	rec := testRecorder(t, RecorderOptions{
		Gatherer: reg,
		Journal:  j,
		Slow:     func() string { return "slow-trace-dump" },
		Build:    map[string]string{"version": "v1"},
	})
	dir, err := rec.Trigger("async.worker.g0", "busy 3s", "tr-1")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	if dir == "" {
		t.Fatal("Trigger returned no directory")
	}
	if base := filepath.Base(dir); !strings.HasPrefix(base, "snap-000001-async_worker_g0") {
		t.Errorf("snapshot dir name = %q", base)
	}

	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		return string(b)
	}
	var meta snapshotMeta
	if err := json.Unmarshal([]byte(read("meta.json")), &meta); err != nil {
		t.Fatalf("meta.json: %v", err)
	}
	if meta.Reason != "async.worker.g0" || meta.Trace != "tr-1" || meta.Seq != 1 {
		t.Errorf("meta = %+v", meta)
	}
	if meta.Goroutines < 1 || meta.GoVersion == "" {
		t.Errorf("meta runtime fields = %+v", meta)
	}
	if g := read("goroutines.txt"); !strings.Contains(g, "goroutine") {
		t.Errorf("goroutines.txt has no stacks: %q", g[:min(len(g), 80)])
	}
	if m := read("metrics.txt"); !strings.Contains(m, "counter core.writes 42") {
		t.Errorf("metrics.txt = %q", m)
	}
	if e := read("events.jsonl"); !strings.Contains(e, `"gc_run"`) {
		t.Errorf("events.jsonl = %q", e)
	}
	if s := read("slow.txt"); s != "slow-trace-dump" {
		t.Errorf("slow.txt = %q", s)
	}

	// The capture itself journals a health_snapshot event.
	var snapEvents int
	for _, ev := range j.Since(0) {
		if ev.Type == events.TypeSnapshot {
			snapEvents++
		}
	}
	if snapEvents != 1 {
		t.Errorf("health_snapshot events = %d, want 1", snapEvents)
	}
}

// TestRecorderRateLimitAndPrune checks the two bounds: MinInterval
// collapses a trigger storm into one capture, and the ring never
// retains more than MaxSnapshots directories.
func TestRecorderRateLimitAndPrune(t *testing.T) {
	rec := testRecorder(t, RecorderOptions{MaxSnapshots: 3, MinInterval: time.Hour})
	rec.Instrument(metrics.NewRegistry())
	if _, err := rec.Trigger("first", "", ""); err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	for i := 0; i < 5; i++ {
		dir, err := rec.Trigger("storm", "", "")
		if err != nil {
			t.Fatalf("Trigger storm: %v", err)
		}
		if dir != "" {
			t.Fatalf("rate limiter let capture %d through", i)
		}
	}
	if got := rec.Snapshots(); len(got) != 1 {
		t.Fatalf("snapshots after storm = %v, want 1", got)
	}

	// Re-arm by zeroing the rate limiter between captures.
	for i := 0; i < 5; i++ {
		rec.lastNS.Store(0)
		if _, err := rec.Trigger("more", "", ""); err != nil {
			t.Fatalf("Trigger more: %v", err)
		}
	}
	got := rec.Snapshots()
	if len(got) != 3 {
		t.Fatalf("ring retained %d snapshots, want 3: %v", len(got), got)
	}
	// Oldest pruned first: the survivor set is the newest three.
	if !strings.HasPrefix(got[0], "snap-000004") {
		t.Errorf("oldest retained = %q, want snap-000004*", got[0])
	}
}

// TestRecorderSequenceResumes checks a restarted recorder continues the
// sequence past on-disk snapshots instead of overwriting them.
func TestRecorderSequenceResumes(t *testing.T) {
	dir := t.TempDir()
	rec := testRecorder(t, RecorderOptions{Dir: dir})
	if _, err := rec.Trigger("before", "", ""); err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	rec2 := testRecorder(t, RecorderOptions{Dir: dir})
	d2, err := rec2.Trigger("after", "", "")
	if err != nil {
		t.Fatalf("Trigger after restart: %v", err)
	}
	if !strings.HasPrefix(filepath.Base(d2), "snap-000002") {
		t.Errorf("post-restart snapshot = %q, want seq 2", filepath.Base(d2))
	}
}

// TestBundleTarball fetches /debug/bundle and walks the tar: every
// retained snapshot appears with its files, and ?n= bounds to the
// newest snapshots.
func TestBundleTarball(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := testRecorder(t, RecorderOptions{Gatherer: reg})
	for i, reason := range []string{"one", "two"} {
		rec.lastNS.Store(0)
		if _, err := rec.Trigger(reason, "", ""); err != nil {
			t.Fatalf("Trigger %d: %v", i, err)
		}
	}

	fetch := func(url string) map[string]bool {
		req := httptest.NewRequest("GET", url, nil)
		rw := httptest.NewRecorder()
		rec.ServeHTTP(rw, req)
		if rw.Code != 200 {
			t.Fatalf("GET %s = %d: %s", url, rw.Code, rw.Body.String())
		}
		gz, err := gzip.NewReader(rw.Body)
		if err != nil {
			t.Fatalf("gzip: %v", err)
		}
		tr := tar.NewReader(gz)
		names := make(map[string]bool)
		for {
			hdr, err := tr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("tar: %v", err)
			}
			names[hdr.Name] = true
			io.Copy(io.Discard, tr)
		}
		return names
	}

	names := fetch("/debug/bundle")
	if !names["snap-000001-one/meta.json"] || !names["snap-000002-two/meta.json"] {
		t.Fatalf("bundle missing snapshots: %v", names)
	}
	if !names["snap-000002-two/metrics.txt"] || !names["snap-000002-two/goroutines.txt"] {
		t.Errorf("bundle missing snapshot files: %v", names)
	}

	only := fetch("/debug/bundle?n=1")
	if only["snap-000001-one/meta.json"] || !only["snap-000002-two/meta.json"] {
		t.Errorf("?n=1 kept the wrong snapshots: %v", only)
	}
}

// TestBundleBadParam checks malformed ?n= values 400 with a JSON body.
func TestBundleBadParam(t *testing.T) {
	rec := testRecorder(t, RecorderOptions{})
	for _, q := range []string{"?n=", "?n=zero", "?n=-1", "?n=0"} {
		req := httptest.NewRequest("GET", "/debug/bundle"+q, nil)
		rw := httptest.NewRecorder()
		rec.ServeHTTP(rw, req)
		if rw.Code != 400 {
			t.Errorf("GET %s = %d, want 400", q, rw.Code)
			continue
		}
		var body struct {
			Error string `json:"error"`
			Param string `json:"param"`
		}
		if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil {
			t.Errorf("GET %s body not JSON: %v (%s)", q, err, rw.Body.String())
			continue
		}
		if body.Param != "n" {
			t.Errorf("GET %s param = %q, want n", q, body.Param)
		}
	}
}
