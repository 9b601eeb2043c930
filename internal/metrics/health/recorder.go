package health

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fidr/internal/metrics"
	"fidr/internal/metrics/events"
)

// Recorder is the snapshot recorder. When a watchdog trips or
// an SLO breaches, Trigger captures a diagnostic snapshot — goroutine
// dump, metrics snapshot, event-journal tail and recent slow traces —
// into a bounded on-disk ring under Dir. Snapshots are written to a
// temp directory and renamed into place, so a crash mid-capture never
// leaves a half-readable snapshot, and the ring is pruned oldest-first
// past MaxSnapshots. /debug/bundle
// serves the whole ring as one tar.gz for fidrcli doctor.
type Recorder struct {
	dir          string
	maxSnapshots int
	minInterval  time.Duration

	gatherer metrics.Gatherer
	journal  *events.Journal
	slow     func() string
	build    map[string]string

	seq       atomic.Uint64
	lastNS    atomic.Int64
	capturing atomic.Bool

	captured *metrics.Counter
	skipped  *metrics.Counter
	errors   *metrics.Counter

	mu sync.Mutex // serialises prune/list against capture rename
}

// RecorderOptions configures a Recorder. Dir is required; zero values
// elsewhere pick the documented defaults.
type RecorderOptions struct {
	Dir          string
	MaxSnapshots int           // ring size; default 8
	MinInterval  time.Duration // min gap between captures; default 10s

	Gatherer metrics.Gatherer // metrics view to snapshot (may be nil)
	Journal  *events.Journal  // event journal to tail (may be nil)
	Slow     func() string    // slow-trace retention dump (may be nil)
	Build    map[string]string
}

// NewRecorder creates the snapshot ring rooted at opt.Dir (created if
// missing) and resumes the sequence counter past any snapshots already
// on disk, so restarts never overwrite earlier evidence.
func NewRecorder(opt RecorderOptions) (*Recorder, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("health: recorder needs a directory")
	}
	if opt.MaxSnapshots <= 0 {
		opt.MaxSnapshots = 8
	}
	if opt.MinInterval <= 0 {
		opt.MinInterval = 10 * time.Second
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("health: recorder dir: %w", err)
	}
	r := &Recorder{
		dir:          opt.Dir,
		maxSnapshots: opt.MaxSnapshots,
		minInterval:  opt.MinInterval,
		gatherer:     opt.Gatherer,
		journal:      opt.Journal,
		slow:         opt.Slow,
		build:        opt.Build,
	}
	for _, s := range r.list() {
		if s.seq > r.seq.Load() {
			r.seq.Store(s.seq)
		}
	}
	return r, nil
}

// Instrument publishes capture counters on reg.
func (r *Recorder) Instrument(reg *metrics.Registry) {
	r.captured = reg.Counter("health.snapshots")
	r.skipped = reg.Counter("health.snapshots_skipped")
	r.errors = reg.Counter("health.snapshot_errors")
}

// snapshotMeta is the meta.json written into every snapshot.
type snapshotMeta struct {
	Seq        uint64            `json:"seq"`
	Reason     string            `json:"reason"`
	Detail     string            `json:"detail,omitempty"`
	Trace      string            `json:"trace,omitempty"`
	TimeUnix   int64             `json:"time_unix"`
	GoVersion  string            `json:"go_version"`
	Goroutines int               `json:"goroutines"`
	Build      map[string]string `json:"build,omitempty"`
}

// Trigger captures one snapshot for the given reason (e.g. the probe or
// SLO name). It rate-limits to one capture per MinInterval and refuses
// to overlap an in-flight capture, so a flapping watchdog cannot turn
// the recorder into its own I/O storm. Safe from any goroutine; capture
// runs on the caller's goroutine (hand it off when calling from the
// watchdog tick loop).
func (r *Recorder) Trigger(reason, detail, trace string) (string, error) {
	now := time.Now()
	last := r.lastNS.Load()
	if last != 0 && now.Sub(time.Unix(0, last)) < r.minInterval {
		if r.skipped != nil {
			r.skipped.Inc()
		}
		return "", nil
	}
	if !r.capturing.CompareAndSwap(false, true) {
		if r.skipped != nil {
			r.skipped.Inc()
		}
		return "", nil
	}
	defer r.capturing.Store(false)
	r.lastNS.Store(now.UnixNano())

	dir, err := r.capture(now, reason, detail, trace)
	if err != nil {
		if r.errors != nil {
			r.errors.Inc()
		}
		return "", err
	}
	if r.captured != nil {
		r.captured.Inc()
	}
	if r.journal != nil {
		r.journal.Append(events.Event{
			Type:   events.TypeSnapshot,
			Detail: reason + " -> " + filepath.Base(dir),
			Trace:  trace,
		})
	}
	return dir, nil
}

// capture writes one snapshot atomically: stage under a ".tmp-" prefix,
// rename into place, prune the ring.
func (r *Recorder) capture(now time.Time, reason, detail, trace string) (string, error) {
	seq := r.seq.Add(1)
	name := fmt.Sprintf("snap-%06d-%s", seq, sanitizeReason(reason))
	tmp := filepath.Join(r.dir, ".tmp-"+name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after the rename succeeds

	meta := snapshotMeta{
		Seq: seq, Reason: reason, Detail: detail, Trace: trace,
		TimeUnix: now.Unix(), GoVersion: runtime.Version(),
		Goroutines: runtime.NumGoroutine(), Build: r.build,
	}
	mb, _ := json.MarshalIndent(meta, "", "  ")
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), append(mb, '\n'), 0o644); err != nil {
		return "", err
	}

	var g strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&g, 2); err == nil {
		if err := os.WriteFile(filepath.Join(tmp, "goroutines.txt"), []byte(g.String()), 0o644); err != nil {
			return "", err
		}
	}
	if r.gatherer != nil {
		txt := metrics.DumpMetrics(r.gatherer.Snapshot())
		if err := os.WriteFile(filepath.Join(tmp, "metrics.txt"), []byte(txt), 0o644); err != nil {
			return "", err
		}
	}
	if r.journal != nil {
		var b bytes.Buffer
		events.Encode(&b, r.journal.Since(0))
		if err := os.WriteFile(filepath.Join(tmp, "events.jsonl"), b.Bytes(), 0o644); err != nil {
			return "", err
		}
	}
	if r.slow != nil {
		if err := os.WriteFile(filepath.Join(tmp, "slow.txt"), []byte(r.slow()), 0o644); err != nil {
			return "", err
		}
	}

	final := filepath.Join(r.dir, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	r.pruneLocked()
	return final, nil
}

// snapshotDir is one on-disk snapshot as discovered by list.
type snapshotDir struct {
	name string
	seq  uint64
}

// list returns the retained snapshots sorted by sequence (oldest
// first). Staging directories and foreign files are ignored.
func (r *Recorder) list() []snapshotDir {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var out []snapshotDir
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "snap-") {
			continue
		}
		parts := strings.SplitN(e.Name(), "-", 3)
		if len(parts) < 2 {
			continue
		}
		seq, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, snapshotDir{name: e.Name(), seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Snapshots returns the names of retained snapshots, oldest first.
func (r *Recorder) Snapshots() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for _, s := range r.list() {
		names = append(names, s.name)
	}
	return names
}

// pruneLocked drops the oldest snapshots beyond maxSnapshots.
func (r *Recorder) pruneLocked() {
	snaps := r.list()
	for len(snaps) > r.maxSnapshots {
		os.RemoveAll(filepath.Join(r.dir, snaps[0].name))
		snaps = snaps[1:]
	}
}

// ServeHTTP serves the snapshot ring as a gzipped tarball
// (health-bundle.tar.gz). ?n=<k> bounds the bundle to the k newest
// snapshots; a malformed or empty value is a 400 with a JSON error
// body, matching the rest of the metrics plane.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	limit := 0
	q := req.URL.Query()
	if q.Has("n") {
		n, err := strconv.Atoi(q.Get("n"))
		if err != nil || n <= 0 {
			metrics.HTTPBadParam(w, "n", q.Get("n"), "positive integer")
			return
		}
		limit = n
	}
	r.mu.Lock()
	snaps := r.list()
	r.mu.Unlock()
	if limit > 0 && len(snaps) > limit {
		snaps = snaps[len(snaps)-limit:]
	}

	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", `attachment; filename="health-bundle.tar.gz"`)
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	for _, s := range snaps {
		r.tarSnapshot(tw, s.name)
	}
	tw.Close()
	gz.Close()
}

// tarSnapshot streams one snapshot directory into the tar writer. A
// snapshot pruned between list and read is skipped silently — the
// bundle is best-effort evidence, not a transactional export.
func (r *Recorder) tarSnapshot(tw *tar.Writer, name string) {
	dir := filepath.Join(r.dir, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		info, err := e.Info()
		if err != nil {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		hdr := &tar.Header{
			Name:    name + "/" + e.Name(),
			Mode:    0o644,
			Size:    info.Size(),
			ModTime: info.ModTime(),
		}
		if tw.WriteHeader(hdr) == nil {
			io.CopyN(tw, f, info.Size())
		}
		f.Close()
	}
}

// BundleSnapshots lists the snapshots inside a bundle ServeHTTP wrote —
// a tar.gz of <snapshot>/<artifact> entries, the layout tarSnapshot
// gives it — sorted, without unpacking anything. A bundle cut short
// yields the names read so far with the error.
func BundleSnapshots(bundle []byte) ([]string, error) {
	gz, err := gzip.NewReader(bytes.NewReader(bundle))
	if err != nil {
		return nil, fmt.Errorf("bad bundle gzip: %w", err)
	}
	defer gz.Close()
	var names []string
	seen := map[string]bool{}
	for tr := tar.NewReader(gz); ; {
		hdr, err := tr.Next()
		if err != nil {
			sort.Strings(names)
			if err == io.EOF {
				return names, nil
			}
			return names, fmt.Errorf("bad bundle tar: %w", err)
		}
		dir, _, ok := strings.Cut(strings.TrimPrefix(hdr.Name, "./"), "/")
		if ok && dir != "" && !seen[dir] {
			seen[dir] = true
			names = append(names, dir)
		}
	}
}

// sanitizeReason maps a free-form trigger reason into a directory-name
// token.
func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c + ('a' - 'A'))
		default:
			b.WriteByte('_')
		}
	}
	s := b.String()
	if len(s) > 40 {
		s = s[:40]
	}
	if s == "" {
		s = "manual"
	}
	return s
}
