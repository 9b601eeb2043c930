package health

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"fidr/internal/metrics"
	"fidr/internal/metrics/events"
)

// Doctor: the `fidrcli doctor` checks, factored here so they run the
// same against a live daemon's scrapes and against a snapshot-recorder
// bundle read offline. Diagnose takes pre-fetched inputs (no I/O, fully
// testable) and returns one CheckResult per check; RenderDoctor prints
// the pass/warn/fail report with an actionable hint per finding.

// DoctorInput carries everything the checks read. Zero-value fields
// degrade the corresponding checks to "skipped" rather than failing:
// the doctor diagnoses with whatever evidence it could fetch.
type DoctorInput struct {
	// Metrics is the parsed /metrics dump (metrics.ParseMetricsText).
	Metrics []metrics.Metric
	// Series is the /metrics/series sampler window.
	Series metrics.SeriesDump
	// Events is the /events journal tail, oldest first.
	Events []events.Event
	// Snapshots names the recorder snapshots in the bundle.
	Snapshots []string
	// BundleErr records why the bundle could not be fetched ("" = ok;
	// "disabled" when the daemon runs without -health-dir).
	BundleErr string
	// FsyncP99Max is the WAL fsync p99 objective; 0 selects 100ms.
	FsyncP99Max time.Duration
}

// CheckResult is one check's verdict.
type CheckResult struct {
	Name   string
	Status string // "PASS", "WARN", "FAIL" or "SKIP"
	Detail string
	Hint   string // actionable next step, printed on WARN/FAIL
}

const (
	StatusPass = "PASS"
	StatusWarn = "WARN"
	StatusFail = "FAIL"
	StatusSkip = "SKIP"
)

// Diagnose runs every doctor check over the fetched inputs.
func Diagnose(in DoctorInput) []CheckResult {
	if in.FsyncP99Max <= 0 {
		in.FsyncP99Max = 100 * time.Millisecond
	}
	return []CheckResult{
		checkWatchdog(in),
		checkStuckQueues(in),
		checkFsync(in),
		checkGoroutines(in),
		checkHeap(in),
		checkGCPause(in),
		checkSLO(in),
		checkJournalDrops(in),
		checkSnapshots(in),
	}
}

// checkWatchdog scans the event journal for stall edges. A probe whose
// latest edge is watchdog_stall is stalled right now (FAIL); a probe
// that stalled and recovered inside the retained window is evidence of
// past trouble (WARN).
func checkWatchdog(in DoctorInput) CheckResult {
	r := CheckResult{Name: "watchdog"}
	if len(in.Events) == 0 {
		r.Status, r.Detail = StatusSkip, "no event journal available"
		return r
	}
	// Latest edge per probe name; stall Detail is "probe: detail".
	type edge struct {
		stalled bool
		at      int64
		detail  string
	}
	latest := make(map[string]edge)
	for _, ev := range in.Events {
		switch ev.Type {
		case events.TypeWatchdogStall:
			name, detail, _ := strings.Cut(ev.Detail, ": ")
			latest[name] = edge{stalled: true, at: ev.TimeUnixNano, detail: detail}
		case events.TypeWatchdogRecover:
			latest[ev.Detail] = edge{stalled: false, at: ev.TimeUnixNano}
		}
	}
	var stalled, recovered []string
	for name, e := range latest {
		if e.stalled {
			stalled = append(stalled, name+" ("+e.detail+")")
		} else {
			recovered = append(recovered, name)
		}
	}
	sort.Strings(stalled)
	sort.Strings(recovered)
	switch {
	case len(stalled) > 0:
		r.Status = StatusFail
		r.Detail = "stalled now: " + strings.Join(stalled, ", ")
		r.Hint = "fetch /debug/bundle and read goroutines.txt for the blocked stack"
	case len(recovered) > 0:
		r.Status = StatusWarn
		r.Detail = "recovered earlier: " + strings.Join(recovered, ", ")
		r.Hint = "a snapshot of the stall is retained in /debug/bundle"
	default:
		r.Status = StatusPass
		r.Detail = "no watchdog stalls in the retained journal"
	}
	return r
}

// checkStuckQueues cross-checks queue depth against throughput: work in
// flight while the windowed op rate is zero means the queues are stuck,
// independent of whether a watchdog deadline has elapsed yet.
func checkStuckQueues(in DoctorInput) CheckResult {
	r := CheckResult{Name: "queues"}
	inflight, n := metrics.SumMetrics(in.Metrics, "async.inflight")
	if n == 0 {
		r.Status, r.Detail = StatusSkip, "no async front-end metrics"
		return r
	}
	if inflight <= 0 {
		r.Status = StatusPass
		r.Detail = "queues empty"
		return r
	}
	var rate float64
	var sampled bool
	for _, s := range in.Series.Series {
		if _, base := metrics.SplitScope(s.Name); base == "async.writes" || base == "async.reads" {
			sampled = true
			rate += s.RatePerSec
		}
	}
	if !sampled {
		r.Status = StatusWarn
		r.Detail = fmt.Sprintf("%.0f ops in flight, no throughput series to confirm drain", inflight)
		r.Hint = "re-run with /metrics/series available (sampler enabled)"
		return r
	}
	if rate == 0 {
		r.Status = StatusFail
		r.Detail = fmt.Sprintf("%.0f ops in flight with zero windowed throughput", inflight)
		r.Hint = "workers are not draining; check watchdog events and goroutines.txt"
		return r
	}
	r.Status = StatusPass
	r.Detail = fmt.Sprintf("%.0f in flight, draining at %.1f ops/s", inflight, rate)
	return r
}

// checkFsync compares every WAL fsync histogram's p99 to the objective.
func checkFsync(in DoctorInput) CheckResult {
	r := CheckResult{Name: "wal fsync"}
	max := float64(in.FsyncP99Max.Nanoseconds())
	var worst float64
	var worstName string
	var n int
	for _, m := range in.Metrics {
		if _, base := metrics.SplitScope(m.Name); m.Kind != "hist" || base != "wal.fsync_ns" || m.Hist.Count == 0 {
			continue
		}
		n++
		if m.Hist.P99 > worst {
			worst, worstName = m.Hist.P99, m.Name
		}
	}
	if n == 0 {
		r.Status, r.Detail = StatusSkip, "no WAL fsync samples"
		return r
	}
	d := time.Duration(worst)
	switch {
	case worst > 2*max:
		r.Status = StatusFail
		r.Detail = fmt.Sprintf("%s p99 %v exceeds 2x the %v objective", worstName, d.Round(time.Microsecond), in.FsyncP99Max)
		r.Hint = "the WAL device is saturated or failing; check wal.fsync_ns series and device health"
	case worst > max:
		r.Status = StatusWarn
		r.Detail = fmt.Sprintf("%s p99 %v exceeds the %v objective", worstName, d.Round(time.Microsecond), in.FsyncP99Max)
		r.Hint = "fsync tail is degrading; watch /slo burn rates"
	default:
		r.Status = StatusPass
		r.Detail = fmt.Sprintf("worst p99 %v within the %v objective", d.Round(time.Microsecond), in.FsyncP99Max)
	}
	return r
}

// checkGoroutines flags monotone goroutine growth across the sampler
// window — the classic leak signature (each stuck request parks one
// goroutine forever).
func checkGoroutines(in DoctorInput) CheckResult {
	r := CheckResult{Name: "goroutines"}
	for _, s := range in.Series.Series {
		if s.Name != "runtime.goroutines" {
			continue
		}
		if len(s.Points) < 2 {
			break
		}
		if s.Last > 2*s.Min && s.Last > s.Min+64 {
			r.Status = StatusWarn
			r.Detail = fmt.Sprintf("grew from %.0f to %.0f inside the sampler window", s.Min, s.Last)
			r.Hint = "diff goroutines.txt across two /debug/bundle snapshots to find the leak"
			return r
		}
		r.Status = StatusPass
		r.Detail = fmt.Sprintf("stable (%.0f now, window min %.0f)", s.Last, s.Min)
		return r
	}
	if m, ok := metrics.FindMetric(in.Metrics, "runtime.goroutines"); ok {
		r.Status = StatusPass
		r.Detail = fmt.Sprintf("%.0f now (no sampled window to judge growth)", m.Value)
		return r
	}
	r.Status, r.Detail = StatusSkip, "runtime metrics not exported"
	return r
}

// checkHeap flags a live heap pressing against the GC goal: the runtime
// is about to GC continuously, which shows up as pause-driven tail
// latency before anything OOMs.
func checkHeap(in DoctorInput) CheckResult {
	r := CheckResult{Name: "heap"}
	heap, ok1 := metrics.FindMetric(in.Metrics, "runtime.heap_bytes")
	goal, ok2 := metrics.FindMetric(in.Metrics, "runtime.gc_goal_bytes")
	if !ok1 || !ok2 || goal.Value <= 0 {
		r.Status, r.Detail = StatusSkip, "runtime heap metrics not exported"
		return r
	}
	frac := heap.Value / goal.Value
	if frac > 0.95 {
		r.Status = StatusWarn
		r.Detail = fmt.Sprintf("live heap %.0f MiB is %.0f%% of the GC goal", heap.Value/(1<<20), frac*100)
		r.Hint = "the process is near continuous GC; start fidrd with -pprof and read /debug/pprof/heap for allocation stacks"
		return r
	}
	r.Status = StatusPass
	r.Detail = fmt.Sprintf("live heap %.0f MiB at %.0f%% of the GC goal", heap.Value/(1<<20), frac*100)
	return r
}

// checkGCPause flags a GC pause p99 long enough to explain SLO-visible
// tail latency on its own.
func checkGCPause(in DoctorInput) CheckResult {
	r := CheckResult{Name: "gc pauses"}
	m, ok := metrics.FindMetric(in.Metrics, "runtime.gc_pause.ns")
	if !ok || m.Hist.Count == 0 {
		r.Status, r.Detail = StatusSkip, "no GC pause samples"
		return r
	}
	p99 := time.Duration(m.Hist.P99)
	if p99 > 50*time.Millisecond {
		r.Status = StatusWarn
		r.Detail = fmt.Sprintf("p99 pause %v", p99.Round(time.Microsecond))
		r.Hint = "GC pauses this long surface in request tails; check heap growth and GOGC"
		return r
	}
	r.Status = StatusPass
	r.Detail = fmt.Sprintf("p99 pause %v", p99.Round(time.Microsecond))
	return r
}

// checkSLO scans the journal for breach edges the same way the
// watchdog check does: an unclosed slo_breach_begin is burning now.
func checkSLO(in DoctorInput) CheckResult {
	r := CheckResult{Name: "slo"}
	if len(in.Events) == 0 {
		r.Status, r.Detail = StatusSkip, "no event journal available"
		return r
	}
	latest := make(map[string]bool) // objective detail -> breached
	for _, ev := range in.Events {
		switch ev.Type {
		case events.TypeSLOBreach:
			latest[ev.Detail] = true
		case events.TypeSLORecover:
			latest[ev.Detail] = false
		}
	}
	var burning []string
	for name, breached := range latest {
		if breached {
			burning = append(burning, name)
		}
	}
	sort.Strings(burning)
	if len(burning) > 0 {
		r.Status = StatusFail
		r.Detail = "breached now: " + strings.Join(burning, ", ")
		r.Hint = "see /slo for burn rates and the breach snapshot in /debug/bundle"
		return r
	}
	r.Status = StatusPass
	r.Detail = "no open SLO breaches in the retained journal"
	return r
}

// checkJournalDrops warns when ring wrap has discarded events: every
// other journal-based verdict is then a lower bound.
func checkJournalDrops(in DoctorInput) CheckResult {
	r := CheckResult{Name: "journal"}
	m, ok := metrics.FindMetric(in.Metrics, "events.dropped")
	if !ok {
		r.Status, r.Detail = StatusSkip, "journal stats not exported"
		return r
	}
	if m.Value > 0 {
		r.Status = StatusWarn
		r.Detail = fmt.Sprintf("%.0f events overwritten by ring wrap", m.Value)
		r.Hint = "older evidence is gone; the journal is a fixed-size ring, so tail /events?since= more often if this recurs"
		return r
	}
	r.Status = StatusPass
	r.Detail = "no events dropped"
	return r
}

// checkSnapshots reports the snapshot-recorder inventory.
func checkSnapshots(in DoctorInput) CheckResult {
	r := CheckResult{Name: "snapshots"}
	switch {
	case in.BundleErr == "disabled":
		r.Status = StatusWarn
		r.Detail = "snapshot recorder disabled (-health-dir unset)"
		r.Hint = "restart fidrd with -health-dir to retain stall evidence"
	case in.BundleErr != "":
		r.Status = StatusWarn
		r.Detail = "bundle not retrievable: " + in.BundleErr
		r.Hint = "check the daemon's /debug/bundle endpoint"
	case len(in.Snapshots) == 0:
		r.Status = StatusPass
		r.Detail = "snapshot recorder armed, no snapshots captured"
	default:
		r.Status = StatusPass
		r.Detail = fmt.Sprintf("%d snapshot(s) retained, newest %s",
			len(in.Snapshots), in.Snapshots[len(in.Snapshots)-1])
	}
	return r
}

// RenderDoctor prints the report and returns the FAIL and WARN counts.
// The caller maps fails > 0 to a non-zero exit status.
func RenderDoctor(w io.Writer, results []CheckResult) (fails, warns int) {
	for _, c := range results {
		fmt.Fprintf(w, "[%s] %-10s %s\n", c.Status, c.Name, c.Detail)
		if c.Hint != "" && (c.Status == StatusWarn || c.Status == StatusFail) {
			fmt.Fprintf(w, "       %*s ↳ %s\n", 0, "", c.Hint)
		}
		switch c.Status {
		case StatusFail:
			fails++
		case StatusWarn:
			warns++
		}
	}
	switch {
	case fails > 0:
		fmt.Fprintf(w, "\ndoctor: %d check(s) FAILED, %d warning(s)\n", fails, warns)
	case warns > 0:
		fmt.Fprintf(w, "\ndoctor: healthy with %d warning(s)\n", warns)
	default:
		fmt.Fprintln(w, "\ndoctor: all checks passed")
	}
	return fails, warns
}
