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
// trace ID (as printed by `put -traced`, traces or slow) to its span
// tree (/traces/spans); slow prints the slow-trace retention
// (/traces/slow); slo renders the latency
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
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"fidr"
	"fidr/internal/metrics"
	"fidr/internal/metrics/events"
	"fidr/internal/metrics/health"
	"fidr/internal/proto"
	"fidr/internal/trace"
	"fidr/internal/trace/span"
)

// options are the flag values the HTTP verbs read.
type options struct {
	args      []string // what follows the flags (trace: the ID)
	interval  time.Duration
	frames    int
	threshold float64
	follow    bool
	evType    string
	fsyncP99  time.Duration
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	var o options
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9400", "server address")
	maddr := fs.String("metrics-addr", "127.0.0.1:9401", "server metrics HTTP address (stats, traces)")
	lba := fs.Uint64("lba", 0, "starting logical block address (4-KB units)")
	file := fs.String("file", "", "input file (put)")
	out := fs.String("out", "", "output file (get); default stdout")
	count := fs.Int("count", 1, "chunks to read (get)")
	traceFile := fs.String("trace", "", "trace file (replay)")
	ratio := fs.Float64("ratio", 0.5, "content compressibility for replayed writes")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "refresh interval (top)")
	fs.IntVar(&o.frames, "n", 0, "frames to render before exiting (top); 0 = until interrupted")
	traced := fs.Bool("traced", false, "trace each put batch end to end; prints one trace ID per batch")
	fs.Float64Var(&o.threshold, "threshold", 0.25, "GC dead-fraction threshold (capacity, gc)")
	fs.BoolVar(&o.follow, "follow", false, "keep polling for new events (events)")
	fs.StringVar(&o.evType, "type", "", "filter events by type, e.g. gc_run (events)")
	fs.DurationVar(&o.fsyncP99, "fsync-p99", 100*time.Millisecond, "WAL fsync p99 objective (doctor)")
	fs.Parse(os.Args[2:])
	o.args = fs.Args()
	if o.interval <= 0 {
		o.interval = 2 * time.Second
	}

	var err error
	switch cmd {
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
			err = gc(c, o.threshold)
		case "checkpoint":
			err = checkpoint(c)
		}
	default:
		mk, ok := views[cmd]
		if !ok {
			usage()
		}
		var v view
		if v, err = mk(&o); err == nil {
			err = v.run(*maddr, os.Stdout)
		}
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
// transient failures are retried; after several attempts the final
// error names how many were made.
func fetchRetry(addr, path string, attempts int) (string, error) {
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
	if attempts > 1 {
		err = fmt.Errorf("giving up after %d attempts: %w", attempts, err)
	}
	return "", err
}

// reply is what one path of a view answered.
type reply struct {
	body string
	err  error
}

// view is an HTTP verb: the paths it asks the metrics endpoint for and
// how it renders the answers. Every such verb is one of these.
type view struct {
	// paths lists one round's requests; it is asked again before every
	// round (events -follow moves its ?since= on). The first need of them
	// must answer; render is handed the error of any other that fails.
	paths func() []string
	need  int
	// render returns what to print, which is printed even beside an error.
	render func(got []reply) (string, error)
	// every > 0 makes the view a live one: a round every so often, each
	// fetch riding out a daemon restart, until rounds of them are done
	// (0 = until interrupted).
	every  time.Duration
	rounds int
}

// run is fetch -> render -> print, once or every v.every.
func (v view) run(addr string, w io.Writer) error {
	attempts := 1
	if v.every > 0 {
		attempts = 5 // worst case ~3s of backoff before giving up with a clear error
	}
	for round := 1; ; round++ {
		paths := v.paths()
		got := make([]reply, len(paths))
		for i, p := range paths {
			got[i].body, got[i].err = fetchRetry(addr, p, attempts)
			if got[i].err != nil && i < v.need {
				return got[i].err
			}
		}
		out, err := v.render(got)
		fmt.Fprint(w, out)
		if err != nil || v.every <= 0 || round == v.rounds {
			return err
		}
		time.Sleep(v.every)
	}
}

// once is a view of fixed paths that must all answer, rendered one time.
func once(render func([]reply) (string, error), paths ...string) view {
	return view{paths: func() []string { return paths }, need: len(paths), render: render}
}

// echo prints a body the daemon already rendered.
func echo(got []reply) (string, error) { return got[0].body, nil }

// views is the table of HTTP verbs: each row turns the flags into the
// view main runs.
var views = map[string]func(o *options) (view, error){
	"stats":  func(*options) (view, error) { return once(renderStats, "/metrics"), nil },
	"traces": func(*options) (view, error) { return once(echo, "/traces"), nil },
	"slow":   func(*options) (view, error) { return once(echo, "/traces/slow"), nil },
	"slo":    func(*options) (view, error) { return once(renderSLO, "/slo"), nil },
	"trace": func(o *options) (view, error) {
		if len(o.args) != 1 {
			return view{}, fmt.Errorf("usage: fidrcli trace [-metrics-addr host:9401] <trace-id>")
		}
		if _, err := span.ParseTraceID(o.args[0]); err != nil {
			return view{}, fmt.Errorf("bad trace ID %q: %v", o.args[0], err)
		}
		return once(echo, "/traces/spans?"+url.Values{"id": {o.args[0]}}.Encode()), nil
	},
	"capacity": func(o *options) (view, error) {
		q := url.Values{"threshold": {fmt.Sprintf("%g", o.threshold)}}
		return once(renderCapacity, "/capacity?"+q.Encode(), "/capacity/containers"), nil
	},
	// One round prints every retained event; -follow keeps asking for
	// what came after the last one printed.
	"events": func(o *options) (view, error) {
		var since uint64
		v := view{need: 1}
		v.paths = func() []string {
			q := url.Values{"since": {strconv.FormatUint(since, 10)}}
			if o.evType != "" {
				q.Set("type", o.evType)
			}
			return []string{"/events?" + q.Encode()}
		}
		v.render = func(got []reply) (string, error) {
			evs, err := events.Decode(strings.NewReader(got[0].body))
			var b strings.Builder
			for _, ev := range evs {
				b.WriteString(renderEvent(ev) + "\n")
				since = max(since, ev.Seq)
			}
			if err != nil {
				err = fmt.Errorf("parse /events: %w", err)
			}
			return b.String(), err
		}
		if o.follow {
			v.every = o.interval
		}
		return v, nil
	},
	// A single frame prints without clearing the terminal, so `fidrcli
	// top -n 1` composes with pipes and scripts.
	"top": func(o *options) (view, error) {
		v := once(func(got []reply) (string, error) {
			var d metrics.SeriesDump
			if err := json.Unmarshal([]byte(got[0].body), &d); err != nil {
				return "", fmt.Errorf("parse /metrics/series: %w", err)
			}
			if o.frames == 1 {
				return renderTop(d), nil
			}
			return "\x1b[2J\x1b[H" + renderTop(d), nil // clear screen, home cursor
		}, "/metrics/series")
		v.every, v.rounds = o.interval, o.frames
		return v, nil
	},
	// doctor cannot diagnose without /metrics; the series window, the
	// journal and the recorder bundle degrade to SKIP/WARN verdicts when
	// unavailable, so it still works against a daemon that predates them.
	"doctor": func(o *options) (view, error) {
		v := once(func(got []reply) (string, error) { return renderDoctor(got, o.fsyncP99) },
			"/metrics", "/metrics/series", "/events", "/debug/bundle")
		v.need = 1
		return v, nil
	},
}

// renderStats renders the /metrics dump as two tables. Counters and
// gauges pivot into name x scope: a cluster's per-group series
// (metrics.SplitScope) become one column per group beside the merged
// value, and a histogram row says whose it is. A single node's dump is
// the same thing with no scopes.
func renderStats(got []reply) (string, error) {
	ms := metrics.ParseMetricsText(got[0].body)
	if len(ms) == 0 {
		return "", fmt.Errorf("no metrics in response")
	}
	var scopes []string
	for _, m := range ms {
		if sc, _ := metrics.SplitScope(m.Name); sc != "" && !slices.Contains(scopes, sc) {
			scopes = append(scopes, sc)
		}
	}
	// Numeric order: group2 before group10.
	slices.SortFunc(scopes, func(a, b string) int { return cmp.Or(len(a)-len(b), strings.Compare(a, b)) })
	cols, hcols := []string{"name", "value"}, []string{"name", "count", "mean", "p50", "p90", "p99", "max"}
	if len(scopes) > 0 {
		cols = append([]string{"name", "merged"}, scopes...)
		hcols = append([]string{"scope"}, hcols...)
	}

	var names []string                      // scalars, scope stripped, first seen first
	value := map[string]map[string]string{} // name -> scope -> value; "" is the merged, or only, scope
	hists := metrics.NewTable("histograms", hcols...)
	for _, m := range ms {
		var scope string
		scope, m.Name = metrics.SplitScope(m.Name)
		name := m.FullName()
		if h := m.Hist; m.Kind == "hist" {
			row := []any{"merged", name, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Max}
			if scope != "" {
				row[0] = scope
			}
			hists.Row(row[len(row)-len(hcols):]...) // no scopes, no scope column
			continue
		}
		if value[name] == nil {
			value[name] = map[string]string{}
			names = append(names, name)
		}
		value[name][scope] = m.ValueText()
	}
	scalars := metrics.NewTable("counters and gauges", cols...)
	for _, name := range names {
		row := []any{name, value[name][""]}
		for _, sc := range scopes {
			row = append(row, value[name][sc])
		}
		scalars.Row(row...)
	}
	return scalars.String() + "\n" + hists.String(), nil
}

// renderSLO renders the error-budget dump as the objective table.
func renderSLO(got []reply) (string, error) {
	var d metrics.SLODump
	if err := json.Unmarshal([]byte(got[0].body), &d); err != nil {
		return "", fmt.Errorf("parse /slo: %w", err)
	}
	return metrics.RenderSLO(d), nil
}

// renderCapacity renders the reduction-attribution ledger and the
// container heatmap as the dashboard: where every client byte went
// (dedup, compression, stored), the garbage debt against it, the
// fingerprint-table occupancy, and whether a GC pass at -threshold
// would pay off.
func renderCapacity(got []reply) (string, error) {
	var r fidr.CapacityReport
	if err := json.Unmarshal([]byte(got[0].body), &r); err != nil {
		return "", fmt.Errorf("parse /capacity: %w", err)
	}
	var hm fidr.ContainerHeatmap
	if err := json.Unmarshal([]byte(got[1].body), &hm); err != nil {
		return "", fmt.Errorf("parse /capacity/containers: %w", err)
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

	cap := metrics.NewTable("capacity and garbage", "metric", "value")
	cap.Row("live bytes", metrics.Bytes(r.LiveBytes))
	cap.Row("garbage bytes", metrics.Bytes(r.GarbageBytes)+"  ("+pct(r.GarbageBytes, r.StoredBytes)+" of stored)")
	cap.Row("reclaimed by GC", metrics.Bytes(r.ReclaimedDeadBytes))
	cap.Row("open container", metrics.Bytes(r.OpenContainerBytes))
	cap.Row("containers", fmt.Sprintf("%d (%d retired)", r.Containers, r.RetiredContainers))
	cap.Row("fingerprints live", fmt.Sprintf("%d / %d (%.1f%%)", r.FPLive, r.FPCapacity, r.FPOccupancy*100))
	cap.Row("fingerprints deleted", fmt.Sprintf("%d", r.DeletedFingerprints))

	gc := metrics.NewTable("gc advice", "metric", "value")
	gc.Row("dead-fraction threshold", fmt.Sprintf("%.2f", r.GC.Threshold))
	gc.Row("candidate containers", fmt.Sprintf("%d", r.GC.CandidateContainers))
	gc.Row("projected reclaim", metrics.Bytes(r.GC.ProjectedReclaimBytes))
	if r.GC.Recommended {
		gc.Row("recommendation", "RUN GC (fidrcli gc -threshold "+fmt.Sprintf("%g", r.GC.Threshold)+")")
	} else {
		gc.Row("recommendation", "no compaction needed")
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
	return attr.String() + "\n" + cap.String() + "\n" + gc.String() + "\n" + heat.String(), nil
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

// renderDoctor turns the health evidence — /metrics, the series window,
// the journal tail and the recorder bundle — into the check report. Any
// FAIL verdict is an error, which main turns into a non-zero exit for
// scripts and CI gates.
func renderDoctor(got []reply, fsyncP99 time.Duration) (string, error) {
	in := health.DoctorInput{FsyncP99Max: fsyncP99, Metrics: metrics.ParseMetricsText(got[0].body)}
	series, journal, bundle := got[1], got[2], got[3]
	if series.err == nil {
		series.err = json.Unmarshal([]byte(series.body), &in.Series)
	}
	if series.err != nil {
		fmt.Fprintf(os.Stderr, "doctor: /metrics/series: %v\n", series.err)
	}
	if journal.err == nil {
		in.Events, journal.err = events.Decode(strings.NewReader(journal.body))
	}
	if journal.err != nil {
		fmt.Fprintf(os.Stderr, "doctor: /events: %v\n", journal.err)
	}
	if bundle.err == nil {
		in.Snapshots, bundle.err = health.BundleSnapshots([]byte(bundle.body))
	}
	if bundle.err != nil {
		in.BundleErr = bundle.err.Error()
		if strings.Contains(in.BundleErr, "snapshot recorder disabled") {
			in.BundleErr = "disabled"
		}
	}

	var report strings.Builder
	if fails, _ := health.RenderDoctor(&report, health.Diagnose(in)); fails > 0 {
		return report.String(), fmt.Errorf("%d check(s) failed", fails)
	}
	return report.String(), nil
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
	s := make(map[string]metrics.Series, len(d.Series)) // by name, for the summary lines
	for _, se := range d.Series {
		s[se.Name] = se
		if scope, _ := metrics.SplitScope(se.Name); scope != "" {
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
