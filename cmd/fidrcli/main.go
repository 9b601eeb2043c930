// Command fidrcli is a client for fidrd: it stores files into the
// chunk-addressed volume, reads them back, replays generated traces, or
// inspects a live server's metrics.
//
// Usage:
//
//	fidrcli put    -addr host:9400 -lba 0 -file data.bin [-traced]
//	fidrcli get    -addr host:9400 -lba 0 -count 16 -out copy.bin
//	fidrcli replay -addr host:9400 -trace workload.trc -ratio 0.5
//	fidrcli stats  -metrics-addr host:9401
//	fidrcli traces -metrics-addr host:9401
//	fidrcli trace  -metrics-addr host:9401 <trace-id>
//	fidrcli slow   -metrics-addr host:9401
//	fidrcli slo    -metrics-addr host:9401
//	fidrcli top    -metrics-addr host:9401 [-interval 2s] [-n 0]
//	fidrcli capacity -metrics-addr host:9401 [-threshold 0.25]
//	fidrcli events -metrics-addr host:9401 [-follow] [-type gc_run]
//	fidrcli doctor -metrics-addr host:9401 [-fsync-p99 100ms]
//	fidrcli gc     -addr host:9400 [-threshold 0.25]
//	fidrcli checkpoint -addr host:9400
//
// stats, traces, trace, slow, slo and top talk to the server's
// -metrics-addr HTTP endpoint: stats fetches /metrics and pretty-prints
// counters, gauges and per-stage latency histograms; traces fetches and
// prints the most recent request traces; trace resolves one distributed
// trace ID (as printed by `put -traced` or scraped from a histogram
// exemplar) to its span tree (/traces/spans); slow prints the
// slow-trace retention (/traces/slow); slo renders the latency
// objectives' error budgets and burn rates (/slo); top polls
// /metrics/series and renders a live view of device utilization, queue
// depths, throughput and data reduction (-n bounds the number of
// frames, 0 = until interrupted).
//
// capacity renders the reduction-attribution ledger, garbage debt and
// GC recommendation (/capacity) plus the container heatmap
// (/capacity/containers); events tails the structured event journal
// (/events), with -follow polling for new records at -interval; gc and
// checkpoint speak the storage protocol (OpCompact/OpCheckpoint) to run
// a GC pass at -threshold dead fraction or persist a metadata
// checkpoint on a live server.
//
// doctor pulls the live health evidence — /metrics, /metrics/series,
// the event journal tail, and the snapshot-recorder bundle inventory —
// runs the local checks from internal/metrics/health over it and
// prints a pass/warn/fail report. It exits non-zero when any check
// FAILs, so it drops straight into scripts and CI gates; -fsync-p99
// sets the WAL fsync latency objective the checks compare against.
package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"fidr"
	"fidr/internal/metrics"
	"fidr/internal/metrics/health"
	"fidr/internal/proto"
	"fidr/internal/trace"
	"fidr/internal/trace/span"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9400", "server address")
	maddr := fs.String("metrics-addr", "127.0.0.1:9401", "server metrics HTTP address (stats, traces)")
	lba := fs.Uint64("lba", 0, "starting logical block address (4-KB units)")
	file := fs.String("file", "", "input file (put)")
	out := fs.String("out", "", "output file (get); default stdout")
	count := fs.Int("count", 1, "chunks to read (get)")
	traceFile := fs.String("trace", "", "trace file (replay)")
	ratio := fs.Float64("ratio", 0.5, "content compressibility for replayed writes")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval (top)")
	frames := fs.Int("n", 0, "frames to render before exiting (top); 0 = until interrupted")
	traced := fs.Bool("traced", false, "trace each put batch end to end; prints one trace ID per batch")
	threshold := fs.Float64("threshold", 0.25, "GC dead-fraction threshold (capacity, gc)")
	follow := fs.Bool("follow", false, "keep polling for new events (events)")
	evType := fs.String("type", "", "filter events by type, e.g. gc_run (events)")
	fsyncP99 := fs.Duration("fsync-p99", 100*time.Millisecond, "WAL fsync p99 objective (doctor)")
	fs.Parse(os.Args[2:])

	var err error
	switch cmd {
	case "stats":
		err = stats(*maddr)
	case "traces":
		err = traces(*maddr)
	case "trace":
		if fs.NArg() != 1 {
			err = fmt.Errorf("usage: fidrcli trace [-metrics-addr host:9401] <trace-id>")
		} else {
			err = traceByID(*maddr, fs.Arg(0))
		}
	case "slow":
		err = slow(*maddr)
	case "slo":
		err = slo(*maddr)
	case "top":
		err = top(*maddr, *interval, *frames)
	case "capacity":
		err = capacity(*maddr, *threshold)
	case "events":
		err = eventsCmd(*maddr, *evType, *follow, *interval)
	case "doctor":
		err = doctor(*maddr, *fsyncP99)
	case "put", "get", "replay", "gc", "checkpoint":
		var c *proto.Client
		c, err = proto.Dial(*addr)
		if err != nil {
			log.Fatalf("fidrcli: %v", err)
		}
		defer c.Close()
		switch cmd {
		case "put":
			err = put(c, *lba, *file, *traced)
		case "get":
			err = get(c, *lba, *count, *out)
		case "replay":
			err = replay(c, *traceFile, *ratio)
		case "gc":
			err = gc(c, *threshold)
		case "checkpoint":
			err = checkpoint(c)
		}
	default:
		usage()
	}
	if err != nil {
		log.Fatalf("fidrcli: %s: %v", cmd, err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fidrcli put|get|replay|stats|traces|trace|slow|slo|top|capacity|events|doctor|gc|checkpoint [flags]  (see -h per command)")
	os.Exit(2)
}

// transientErr marks fetch failures worth retrying: an unreachable
// endpoint (daemon restarting, listen queue full) or a 5xx response.
// 4xx responses mean the request itself is wrong and fail immediately.
type transientErr struct{ err error }

func (e *transientErr) Error() string { return e.err.Error() }
func (e *transientErr) Unwrap() error { return e.err }

// fetch GETs one path from the server's metrics endpoint. Errors carry
// enough context to act on: an unreachable endpoint names the address
// and suggests the fidrd flag, a non-200 carries the status and body.
// Callers bubble the error to main, which exits non-zero.
func fetch(addr, path string) (string, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	resp, err := http.Get(addr + path)
	if err != nil {
		return "", &transientErr{fmt.Errorf("metrics endpoint %s unreachable (is fidrd running with -metrics-addr?): %w", addr, err)}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", &transientErr{err}
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("GET %s%s: %s: %s", addr, path, resp.Status, strings.TrimSpace(string(body)))
		if resp.StatusCode >= 500 {
			return "", &transientErr{err}
		}
		return "", err
	}
	return string(body), nil
}

// fetchRetry wraps fetch with bounded exponential backoff (100ms
// doubling per attempt) for the long-running views: a daemon restart
// mid `top` or `events -follow` should ride through a few failed
// polls rather than kill a dashboard that has been up for hours. Only
// transient failures are retried; the final error names how many
// attempts were made.
func fetchRetry(addr, path string, attempts int) (string, error) {
	if attempts < 1 {
		attempts = 1
	}
	backoff := 100 * time.Millisecond
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		var body string
		body, err = fetch(addr, path)
		if err == nil {
			return body, nil
		}
		var te *transientErr
		if !errors.As(err, &te) {
			return "", err
		}
	}
	return "", fmt.Errorf("giving up after %d attempts: %w", attempts, err)
}

// retryAttempts bounds fetchRetry for the polling commands: worst case
// ~3s of backoff before giving up with a clear error.
const retryAttempts = 5

// statLine is one parsed dump line.
type statLine struct {
	kind  string // "counter", "gauge" or "hist"
	scope string // "" for cluster-wide/merged, else "group<N>"
	name  string // metric name with any group prefix stripped
	kv    map[string]string
	value string
}

var groupRe = regexp.MustCompile(`^group(\d+)\.`)

// parseStats splits a /metrics dump into lines, stripping "group<N>."
// prefixes into a scope and returning the sorted scopes seen.
func parseStats(body string) (lines []statLine, scopes []string) {
	seen := map[string]bool{}
	for _, raw := range strings.Split(body, "\n") {
		f := strings.Fields(raw)
		if len(f) < 3 {
			continue
		}
		sl := statLine{kind: f[0], name: f[1]}
		switch sl.kind {
		case "counter", "gauge":
			sl.value = f[2]
		case "hist":
			// Fields arrive as key=value pairs in dump order:
			// count= mean= min= p50= p90= p99= max=.
			sl.kv = make(map[string]string, len(f)-2)
			for _, pair := range f[2:] {
				if k, v, ok := strings.Cut(pair, "="); ok {
					sl.kv[k] = v
				}
			}
		default:
			continue
		}
		if m := groupRe.FindStringSubmatch(sl.name); m != nil {
			sl.scope = "group" + m[1]
			sl.name = sl.name[len(m[0]):]
			if !seen[sl.scope] {
				seen[sl.scope] = true
				scopes = append(scopes, sl.scope)
			}
		}
		lines = append(lines, sl)
	}
	sort.Slice(scopes, func(i, j int) bool {
		// Numeric order: group2 before group10.
		return len(scopes[i]) < len(scopes[j]) ||
			(len(scopes[i]) == len(scopes[j]) && scopes[i] < scopes[j])
	})
	return lines, scopes
}

// stats fetches /metrics and renders the dump as tables. Against a
// cluster fidrd, scalar metrics become one column per group next to the
// merged cluster-wide value, and histograms carry a scope column.
func stats(addr string) error {
	body, err := fetch(addr, "/metrics")
	if err != nil {
		return err
	}
	lines, scopes := parseStats(body)
	if len(lines) == 0 {
		return fmt.Errorf("no metrics in response")
	}
	if len(scopes) == 0 {
		scalars := metrics.NewTable("counters and gauges", "name", "value")
		hists := metrics.NewTable("histograms", "name", "count", "mean", "p50", "p90", "p99", "max")
		for _, sl := range lines {
			if sl.kind == "hist" {
				hists.Row(sl.name, sl.kv["count"], sl.kv["mean"], sl.kv["p50"], sl.kv["p90"], sl.kv["p99"], sl.kv["max"])
			} else {
				scalars.Row(sl.name, sl.value)
			}
		}
		fmt.Print(scalars.String())
		fmt.Println()
		fmt.Print(hists.String())
		return nil
	}

	// Cluster view: pivot scalars into name x (merged, group0, ...).
	byName := map[string]map[string]string{}
	var order []string
	for _, sl := range lines {
		if sl.kind == "hist" {
			continue
		}
		if byName[sl.name] == nil {
			byName[sl.name] = map[string]string{}
			order = append(order, sl.name)
		}
		scope := sl.scope
		if scope == "" {
			scope = "merged"
		}
		byName[sl.name][scope] = sl.value
	}
	cols := append([]string{"name", "merged"}, scopes...)
	scalars := metrics.NewTable("counters and gauges", cols...)
	for _, name := range order {
		row := make([]any, 0, len(cols))
		row = append(row, name, byName[name]["merged"])
		for _, sc := range scopes {
			row = append(row, byName[name][sc])
		}
		scalars.Row(row...)
	}
	hists := metrics.NewTable("histograms", "scope", "name", "count", "mean", "p50", "p90", "p99", "max")
	for _, sl := range lines {
		if sl.kind != "hist" {
			continue
		}
		scope := sl.scope
		if scope == "" {
			scope = "merged"
		}
		hists.Row(scope, sl.name, sl.kv["count"], sl.kv["mean"], sl.kv["p50"], sl.kv["p90"], sl.kv["p99"], sl.kv["max"])
	}
	fmt.Print(scalars.String())
	fmt.Println()
	fmt.Print(hists.String())
	return nil
}

// traces fetches /traces and prints the rendered table.
func traces(addr string) error {
	body, err := fetch(addr, "/traces")
	if err != nil {
		return err
	}
	fmt.Print(body)
	return nil
}

// slow fetches the slow-trace retention and prints it.
func slow(addr string) error {
	body, err := fetch(addr, "/traces/slow")
	if err != nil {
		return err
	}
	fmt.Print(body)
	return nil
}

// traceByID resolves one distributed trace ID to its rendered span
// tree. IDs come from `put -traced`, from histogram exemplars on
// /metrics?format=prom, or from another trace's output.
func traceByID(addr, id string) error {
	if _, err := span.ParseTraceID(id); err != nil {
		return fmt.Errorf("bad trace ID %q: %v", id, err)
	}
	body, err := fetch(addr, "/traces/spans?id="+id)
	if err != nil {
		return err
	}
	fmt.Print(body)
	return nil
}

// slo fetches the error-budget dump and renders the objective table.
func slo(addr string) error {
	body, err := fetch(addr, "/slo")
	if err != nil {
		return err
	}
	var d metrics.SLODump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		return fmt.Errorf("parse /slo: %w", err)
	}
	fmt.Print(metrics.RenderSLO(d))
	return nil
}

// capacity fetches the reduction-attribution ledger and the container
// heatmap and renders the dashboard: where every client byte went
// (dedup, compression, stored), the garbage debt against it, the
// fingerprint-table occupancy, and whether a GC pass at -threshold
// would pay off.
func capacity(addr string, threshold float64) error {
	body, err := fetch(addr, fmt.Sprintf("/capacity?threshold=%g", threshold))
	if err != nil {
		return err
	}
	var r fidr.CapacityReport
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		return fmt.Errorf("parse /capacity: %w", err)
	}
	pct := func(part, whole uint64) string {
		if whole == 0 {
			return "-"
		}
		return fmt.Sprintf("%5.1f%%", float64(part)/float64(whole)*100)
	}

	attr := metrics.NewTable("reduction attribution", "bucket", "bytes", "of logical")
	attr.Row("logical writes", metrics.Bytes(r.LogicalWriteBytes), pct(r.LogicalWriteBytes, r.LogicalWriteBytes))
	attr.Row("dedup saved", metrics.Bytes(r.DedupSavedBytes), pct(r.DedupSavedBytes, r.LogicalWriteBytes))
	attr.Row("compression saved", metrics.Bytes(r.CompressionSavedBytes), pct(r.CompressionSavedBytes, r.LogicalWriteBytes))
	attr.Row("stored", metrics.Bytes(r.StoredBytes), pct(r.StoredBytes, r.LogicalWriteBytes))
	if r.UnattributedBytes > 0 {
		attr.Row("in flight", metrics.Bytes(r.UnattributedBytes), pct(r.UnattributedBytes, r.LogicalWriteBytes))
	}
	attr.Row("reduction ratio", fmt.Sprintf("%.2fx", r.ReductionRatio), "")
	fmt.Print(attr.String())
	fmt.Println()

	cap := metrics.NewTable("capacity and garbage", "metric", "value")
	cap.Row("live bytes", metrics.Bytes(r.LiveBytes))
	cap.Row("garbage bytes", metrics.Bytes(r.GarbageBytes)+"  ("+pct(r.GarbageBytes, r.StoredBytes)+" of stored)")
	cap.Row("reclaimed by GC", metrics.Bytes(r.ReclaimedDeadBytes))
	cap.Row("open container", metrics.Bytes(r.OpenContainerBytes))
	cap.Row("containers", fmt.Sprintf("%d (%d retired)", r.Containers, r.RetiredContainers))
	cap.Row("fingerprints live", fmt.Sprintf("%d / %d (%.1f%%)", r.FPLive, r.FPCapacity, r.FPOccupancy*100))
	cap.Row("fingerprints deleted", fmt.Sprintf("%d", r.DeletedFingerprints))
	fmt.Print(cap.String())
	fmt.Println()

	gc := metrics.NewTable("gc advice", "metric", "value")
	gc.Row("dead-fraction threshold", fmt.Sprintf("%.2f", r.GC.Threshold))
	gc.Row("candidate containers", fmt.Sprintf("%d", r.GC.CandidateContainers))
	gc.Row("projected reclaim", metrics.Bytes(r.GC.ProjectedReclaimBytes))
	if r.GC.Recommended {
		gc.Row("recommendation", "RUN GC (fidrcli gc -threshold "+fmt.Sprintf("%g", r.GC.Threshold)+")")
	} else {
		gc.Row("recommendation", "no compaction needed")
	}
	fmt.Print(gc.String())
	fmt.Println()

	hbody, err := fetch(addr, "/capacity/containers")
	if err != nil {
		return err
	}
	var hm fidr.ContainerHeatmap
	if err := json.Unmarshal([]byte(hbody), &hm); err != nil {
		return fmt.Errorf("parse /capacity/containers: %w", err)
	}
	heat := metrics.NewTable(
		fmt.Sprintf("container heatmap — %d containers, %d retired", hm.Containers, hm.Retired),
		"age band", "dead frac", "containers", "live", "dead")
	ageName := [...]string{"old", "mid", "young"}
	for _, b := range hm.Buckets {
		name := fmt.Sprintf("band %d", b.AgeBand)
		if b.AgeBand >= 0 && b.AgeBand < len(ageName) {
			name = ageName[b.AgeBand]
		}
		heat.Row(name,
			fmt.Sprintf("%.1f–%.1f", b.DeadFracLo, b.DeadFracHi),
			fmt.Sprintf("%d", b.Containers),
			metrics.Bytes(b.LiveBytes),
			metrics.Bytes(b.DeadBytes))
	}
	fmt.Print(heat.String())
	return nil
}

// eventsCmd tails the structured event journal. One shot prints every
// retained (optionally type-filtered) event; -follow then keeps polling
// /events?since=<last seq> at the -interval cadence until interrupted.
func eventsCmd(addr, typ string, follow bool, interval time.Duration) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	// One-shot mode fails fast; -follow rides through transient fetch
	// errors with bounded backoff so a daemon restart doesn't kill the
	// tail.
	attempts := 1
	if follow {
		attempts = retryAttempts
	}
	var since uint64
	for {
		path := fmt.Sprintf("/events?since=%d", since)
		if typ != "" {
			path += "&type=" + typ
		}
		body, err := fetchRetry(addr, path, attempts)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(body, "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			var ev fidr.Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				return fmt.Errorf("parse /events line: %w", err)
			}
			fmt.Println(renderEvent(ev))
			if ev.Seq > since {
				since = ev.Seq
			}
		}
		if !follow {
			return nil
		}
		time.Sleep(interval)
	}
}

// renderEvent formats one journal record as a single line:
// sequence, wall time, type, origin group, trace link, and the sorted
// type-specific fields.
func renderEvent(ev fidr.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d  %s  %-16s g%d",
		ev.Seq, time.Unix(0, ev.TimeUnixNano).Format("15:04:05.000"), ev.Type, ev.Group)
	if ev.Detail != "" {
		fmt.Fprintf(&b, "  %s", ev.Detail)
	}
	keys := make([]string, 0, len(ev.Fields))
	for k := range ev.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s=%d", k, ev.Fields[k])
	}
	if ev.Trace != "" {
		fmt.Fprintf(&b, "  trace=%s", ev.Trace)
	}
	return b.String()
}

// doctor gathers the live health evidence and renders the check
// report. /metrics is mandatory — without it there is nothing to
// diagnose — while the series window, event journal and snapshot-recorder
// bundle degrade to SKIP/WARN verdicts when unavailable, so the doctor
// still works against a daemon that predates those endpoints. Any FAIL
// verdict surfaces as a non-nil error, which main turns into a non-zero
// exit for scripts and CI gates.
func doctor(addr string, fsyncP99 time.Duration) error {
	in := health.DoctorInput{FsyncP99Max: fsyncP99}

	body, err := fetch(addr, "/metrics")
	if err != nil {
		return err
	}
	in.Metrics = metrics.ParseMetricsText(body)

	if body, err := fetch(addr, "/metrics/series"); err == nil {
		if jerr := json.Unmarshal([]byte(body), &in.Series); jerr != nil {
			fmt.Fprintf(os.Stderr, "doctor: parse /metrics/series: %v\n", jerr)
		}
	} else {
		fmt.Fprintf(os.Stderr, "doctor: %v\n", err)
	}

	if body, err := fetch(addr, "/events"); err == nil {
		for _, line := range strings.Split(body, "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			var ev fidr.Event
			if jerr := json.Unmarshal([]byte(line), &ev); jerr == nil {
				in.Events = append(in.Events, ev)
			}
		}
	} else {
		fmt.Fprintf(os.Stderr, "doctor: %v\n", err)
	}

	if body, err := fetch(addr, "/debug/bundle"); err == nil {
		in.Snapshots, in.BundleErr = bundleSnapshots([]byte(body))
	} else if strings.Contains(err.Error(), "snapshot recorder disabled") {
		in.BundleErr = "disabled"
	} else {
		in.BundleErr = err.Error()
	}

	fails, _ := health.RenderDoctor(os.Stdout, health.Diagnose(in))
	if fails > 0 {
		return fmt.Errorf("%d check(s) failed", fails)
	}
	return nil
}

// bundleSnapshots lists the snapshot directories inside a
// snapshot-recorder bundle (a tar.gz whose entries are
// <snapshot>/<artifact> paths) without unpacking it to disk.
func bundleSnapshots(bundle []byte) (names []string, errText string) {
	gz, err := gzip.NewReader(bytes.NewReader(bundle))
	if err != nil {
		return nil, "bad bundle gzip: " + err.Error()
	}
	defer gz.Close()
	seen := map[string]bool{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return names, "bad bundle tar: " + err.Error()
		}
		dir, _, ok := strings.Cut(strings.TrimPrefix(hdr.Name, "./"), "/")
		if ok && dir != "" && !seen[dir] {
			seen[dir] = true
			names = append(names, dir)
		}
	}
	sort.Strings(names)
	return names, ""
}

// gc asks the server to run a compaction pass over every group at the
// given dead-fraction threshold and prints what it reclaimed.
func gc(c *proto.Client, threshold float64) error {
	sum, err := c.Compact(threshold)
	if err != nil {
		return err
	}
	fmt.Printf("compacted %d containers: moved %d chunks (%s), dropped %d dead chunks, reclaimed %s\n",
		sum.ContainersCompacted, sum.ChunksMoved, metrics.Bytes(sum.BytesMoved),
		sum.ChunksDropped, metrics.Bytes(sum.BytesReclaimed))
	return nil
}

// checkpoint asks the server to persist a metadata checkpoint (and
// truncate the WAL where one is attached).
func checkpoint(c *proto.Client) error {
	if err := c.Checkpoint(); err != nil {
		return err
	}
	fmt.Println("checkpoint persisted")
	return nil
}

// top polls /metrics/series and renders a live device view. frames
// bounds the number of refreshes (0 = until interrupted); a single
// frame prints without clearing the terminal, so `fidrcli top -n 1`
// composes with pipes and scripts.
func top(addr string, interval time.Duration, frames int) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	for i := 0; ; i++ {
		body, err := fetchRetry(addr, "/metrics/series", retryAttempts)
		if err != nil {
			return err
		}
		var d metrics.SeriesDump
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			return fmt.Errorf("parse /metrics/series: %w", err)
		}
		if frames != 1 {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Print(renderTop(d))
		if frames > 0 && i+1 >= frames {
			return nil
		}
		time.Sleep(interval)
	}
}

// topSeries indexes a dump by name for the summary lines.
func topSeries(d metrics.SeriesDump) map[string]metrics.Series {
	byName := make(map[string]metrics.Series, len(d.Series))
	for _, se := range d.Series {
		byName[se.Name] = se
	}
	return byName
}

// dutyBar renders a 20-cell utilization bar.
func dutyBar(duty float64) string {
	const cells = 20
	n := int(duty*cells + 0.5)
	if n > cells {
		n = cells
	}
	return strings.Repeat("#", n) + strings.Repeat(".", cells-n)
}

// renderTop formats one frame of the live view: per-device duty cycles,
// queue/buffer occupancy, and throughput/reduction headlines. Cluster
// per-group series ("group<N>." prefix) are skipped — top shows the
// merged view; use `fidrcli stats` for the per-group pivot.
func renderTop(d metrics.SeriesDump) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fidr top — %d samples over %.0fs\n\n", d.Samples, d.WindowSeconds)

	util := metrics.NewTable("device utilization (windowed duty cycle)",
		"device", "busy", "utilization")
	queues := metrics.NewTable("queues and buffers", "gauge", "now", "min", "max")
	for _, se := range d.Series {
		if strings.HasPrefix(se.Name, "group") {
			continue
		}
		if se.Duty != nil {
			device := strings.TrimSuffix(se.Name, ".busy_ns")
			util.Row(device, fmt.Sprintf("%5.1f%%", *se.Duty*100), dutyBar(*se.Duty))
		}
		if se.Kind == "gauge" && (strings.Contains(se.Name, "queue") || strings.Contains(se.Name, "buffered")) {
			queues.Row(se.Name, se.Last, se.Min, se.Max)
		}
	}
	b.WriteString(util.String())
	b.WriteByte('\n')
	b.WriteString(queues.String())
	b.WriteByte('\n')

	s := topSeries(d)
	rate := func(name string) float64 { return s[name].RatePerSec }
	last := func(name string) float64 { return s[name].Last }
	sum := metrics.NewTable("throughput and reduction", "metric", "value")
	sum.Row("client throughput", metrics.Bytes(uint64(rate("core.client_bytes")))+"/s")
	sum.Row("writes/s", fmt.Sprintf("%.1f", rate("core.writes")))
	sum.Row("reads/s", fmt.Sprintf("%.1f", rate("core.reads")))
	if client := last("core.client_bytes"); client > 0 {
		sum.Row("stored/client ratio", fmt.Sprintf("%.3f", last("core.stored_bytes")/client))
	}
	sum.Row("host DRAM traffic", metrics.Bytes(uint64(rate("hostmodel.dram_bytes")))+"/s")
	sum.Row("host DRAM payload total", metrics.Bytes(uint64(last("hostmodel.dram_payload_bytes"))))
	sum.Row("PCIe p2p", metrics.Bytes(uint64(rate("pcie.p2p_bytes")))+"/s")
	sum.Row("PCIe via root complex", metrics.Bytes(uint64(rate("pcie.root_bytes")))+"/s")
	sum.Row("slow traces captured", fmt.Sprintf("%.0f", last("core.slow_traces")))
	b.WriteString(sum.String())
	return b.String()
}

func put(c *proto.Client, lba uint64, path string, traced bool) error {
	if path == "" {
		return fmt.Errorf("-file is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Stream the file in batched frames of up to 32 chunks.
	const batchChunks = 32
	buf := make([]byte, batchChunks*fidr.ChunkSize)
	chunks := 0
	for {
		n, err := io.ReadFull(f, buf)
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			// Zero-pad the tail to a chunk boundary.
			padded := (n + fidr.ChunkSize - 1) / fidr.ChunkSize * fidr.ChunkSize
			for i := n; i < padded; i++ {
				buf[i] = 0
			}
			n = padded
			err = nil
		}
		if err != nil {
			return err
		}
		batchLBA := lba + uint64(chunks)
		if traced {
			id, werr := c.WriteBatchTraced(batchLBA, buf[:n])
			if werr != nil {
				return werr
			}
			fmt.Printf("trace %s  batch at LBA %d (%d chunks)\n", id, batchLBA, n/fidr.ChunkSize)
		} else if werr := c.WriteBatch(batchLBA, buf[:n]); werr != nil {
			return werr
		}
		chunks += n / fidr.ChunkSize
		if n < len(buf) {
			break
		}
	}
	fmt.Printf("stored %d chunks starting at LBA %d\n", chunks, lba)
	return nil
}

func get(c *proto.Client, lba uint64, count int, outPath string) error {
	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	// Fetch in batched frames of up to 32 chunks.
	const batch = 32
	for i := 0; i < count; i += batch {
		n := batch
		if count-i < n {
			n = count - i
		}
		data, err := c.ReadBatch(lba+uint64(i), n)
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

func replay(c *proto.Client, path string, ratio float64) error {
	if path == "" {
		return fmt.Errorf("-trace is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var writes, reads int
	for {
		req, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch req.Op {
		case trace.OpWrite:
			if err := c.WriteChunk(req.LBA, fidr.MakeChunk(req.ContentSeed, ratio)); err != nil {
				return err
			}
			writes++
		case trace.OpRead:
			if _, err := c.ReadChunk(req.LBA); err != nil {
				return fmt.Errorf("read LBA %d: %w", req.LBA, err)
			}
			reads++
		}
	}
	fmt.Printf("replayed %d writes, %d reads\n", writes, reads)
	return nil
}
