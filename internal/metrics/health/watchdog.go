// Package health is the daemon's self-observability plane: where the
// rest of internal/metrics explains the workload (stage latencies,
// reduction counters, capacity ledgers), this package explains the
// process serving it. Four pieces compose:
//
//   - Runtime bridges Go runtime/metrics (heap, GC pauses, goroutines,
//     scheduler latency) into the Gatherer plane, so host-runtime
//     pressure shows up next to the storage counters on /metrics.
//   - Watchdog runs per-subsystem liveness probes (worker heartbeats,
//     fsync deadlines, accept-loop liveness, stuck-queue detection) and
//     emits watchdog_stall / watchdog_recover events on transitions.
//   - Recorder is the snapshot recorder: a bounded on-disk ring
//     of diagnostic snapshots captured when a watchdog trips or an SLO
//     breaches, served as a tarball at /debug/bundle.
//   - Diagnose runs the `fidrcli doctor` checks over scraped inputs and
//     renders a pass/warn/fail report.
//
// Everything is stdlib-only and depends only on sibling metrics
// packages, so every layer (async front-end, WAL, proto listener, the
// daemons) can participate without import cycles.
package health

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fidr/internal/metrics"
	"fidr/internal/metrics/events"
)

// Heartbeat is an atomic liveness pulse owned by one worker goroutine.
// The worker calls Begin when it picks up a unit of work and End when
// the unit completes; the watchdog trips when a heartbeat has been busy
// longer than its probe deadline since its last Begin or End. An idle
// worker (nothing begun) never trips, so an empty queue is not a stall.
type Heartbeat struct {
	lastNS atomic.Int64 // wall clock of the last Begin/End
	busy   atomic.Int64 // in-flight units of work

	mu    sync.Mutex
	trace string // trace ID of the in-flight unit, when sampled
}

// Begin marks one unit of work in flight and beats. trace optionally
// names the distributed trace riding the unit ("" when untraced); a
// stall report attaches it so the operator can resolve the blocked
// request's span tree.
func (h *Heartbeat) Begin(trace string) {
	h.busy.Add(1)
	h.lastNS.Store(time.Now().UnixNano())
	h.mu.Lock()
	h.trace = trace
	h.mu.Unlock()
}

// End completes one unit of work and beats.
func (h *Heartbeat) End() {
	h.busy.Add(-1)
	h.lastNS.Store(time.Now().UnixNano())
}

// Busy reports the in-flight unit count.
func (h *Heartbeat) Busy() int { return int(h.busy.Load()) }

// stalledFor returns how long the heartbeat has been busy without a
// beat, and the in-flight trace ID. Zero when idle.
func (h *Heartbeat) stalledFor(now time.Time) (time.Duration, string) {
	if h.busy.Load() <= 0 {
		return 0, ""
	}
	last := h.lastNS.Load()
	if last == 0 {
		return 0, ""
	}
	d := now.Sub(time.Unix(0, last))
	if d <= 0 {
		return 0, ""
	}
	h.mu.Lock()
	tr := h.trace
	h.mu.Unlock()
	return d, tr
}

// Probe is one subsystem liveness check, evaluated on every watchdog
// tick. Check returns whether the subsystem is stalled right now plus a
// human-readable detail and an optional trace ID.
type Probe struct {
	Name     string
	Deadline time.Duration
	Check    func(now time.Time) (stalled bool, detail string, trace string)
}

// HeartbeatProbe builds a probe that trips when hb has been busy longer
// than deadline without a beat.
func HeartbeatProbe(name string, hb *Heartbeat, deadline time.Duration) Probe {
	return Probe{
		Name:     name,
		Deadline: deadline,
		Check: func(now time.Time) (bool, string, string) {
			d, tr := hb.stalledFor(now)
			if d <= deadline {
				return false, "", ""
			}
			return true, "busy " + d.Round(time.Millisecond).String() + " without a heartbeat", tr
		},
	}
}

// FuncProbe builds a probe from a plain condition: fn reports (stalled,
// detail). Deadline is informational (carried into the stall event).
func FuncProbe(name string, deadline time.Duration, fn func() (bool, string)) Probe {
	return Probe{
		Name:     name,
		Deadline: deadline,
		Check: func(time.Time) (bool, string, string) {
			stalled, detail := fn()
			return stalled, detail, ""
		},
	}
}

// ProgressProbe builds a stuck-queue probe: it trips when depth has
// stayed above zero for longer than deadline while the completion
// counter has not advanced. A busy-but-draining queue never trips.
func ProgressProbe(name string, deadline time.Duration, depth func() int, completed func() uint64) Probe {
	var (
		lastDone  uint64
		stuckFrom time.Time
	)
	return Probe{
		Name:     name,
		Deadline: deadline,
		Check: func(now time.Time) (bool, string, string) {
			d, done := depth(), completed()
			if d <= 0 || done != lastDone {
				lastDone = done
				stuckFrom = time.Time{}
				return false, "", ""
			}
			if stuckFrom.IsZero() {
				stuckFrom = now
				return false, "", ""
			}
			if since := now.Sub(stuckFrom); since > deadline {
				return true, "queue depth " + strconv.Itoa(d) + " with no completions for " +
					since.Round(time.Millisecond).String(), ""
			}
			return false, "", ""
		},
	}
}

// probeState tracks one probe's transition edge.
type probeState struct {
	probe      Probe
	stalled    bool
	stallStart time.Time
}

// Watchdog evaluates registered probes on a fixed cadence and reports
// stall transitions: a watchdog_stall event (with the probe name,
// deadline and in-flight trace when available) on the healthy→stalled
// edge, a watchdog_recover event on the way back, and an optional
// OnStall callback (the snapshot-recorder trigger). Probes are registered
// before Run; the evaluation loop is single-goroutine, so probe Check
// closures may keep private state.
type Watchdog struct {
	mu     sync.Mutex
	probes []*probeState

	journal *events.Journal
	onStall func(probe, detail, trace string)

	stalls, recoveries *metrics.Counter
	stalledGauge       *metrics.Gauge
	ticks              *metrics.Counter
}

// NewWatchdog returns an empty watchdog.
func NewWatchdog() *Watchdog { return &Watchdog{} }

// Add registers a probe. Safe before and between ticks.
func (w *Watchdog) Add(p Probe) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.probes = append(w.probes, &probeState{probe: p})
}

// SetEventJournal attaches the journal receiving stall transitions.
func (w *Watchdog) SetEventJournal(j *events.Journal) { w.journal = j }

// OnStall registers a callback invoked (on the watchdog goroutine) for
// every healthy→stalled transition. Long work — snapshot capture — must
// be handed off so ticks keep running.
func (w *Watchdog) OnStall(fn func(probe, detail, trace string)) { w.onStall = fn }

// Instrument publishes the watchdog's own series on reg:
// health.watchdog_stalls / health.watchdog_recoveries / health.watchdog_ticks
// counters and the health.watchdog_stalled gauge (probes stalled right
// now).
func (w *Watchdog) Instrument(reg *metrics.Registry) {
	w.stalls = reg.Counter("health.watchdog_stalls")
	w.recoveries = reg.Counter("health.watchdog_recoveries")
	w.ticks = reg.Counter("health.watchdog_ticks")
	w.stalledGauge = reg.Gauge("health.watchdog_stalled")
}

// Stalled returns the names of probes currently in the stalled state.
func (w *Watchdog) Stalled() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, ps := range w.probes {
		if ps.stalled {
			out = append(out, ps.probe.Name)
		}
	}
	return out
}

// transition is one probe edge observed by a tick.
type transition struct {
	name, detail, trace string
	deadline            time.Duration
	stalledFor          time.Duration
	toStalled           bool
}

// Tick evaluates every probe once at the given time. Run calls it on
// the cadence; tests call it directly. Probe Check closures run only
// from here (one goroutine), so they may keep private state; edge state
// is mutated under the mutex so Stalled can read it concurrently, and
// events/callbacks fire after the lock is released.
func (w *Watchdog) Tick(now time.Time) {
	if w.ticks != nil {
		w.ticks.Inc()
	}
	var edges []transition
	stalledNow := 0
	w.mu.Lock()
	for _, ps := range w.probes {
		stalled, detail, tr := ps.probe.Check(now)
		if stalled {
			stalledNow++
		}
		switch {
		case stalled && !ps.stalled:
			ps.stalled = true
			ps.stallStart = now
			edges = append(edges, transition{
				name: ps.probe.Name, detail: detail, trace: tr,
				deadline: ps.probe.Deadline, toStalled: true,
			})
		case !stalled && ps.stalled:
			ps.stalled = false
			edges = append(edges, transition{
				name: ps.probe.Name, stalledFor: now.Sub(ps.stallStart),
			})
		}
	}
	w.mu.Unlock()
	if w.stalledGauge != nil {
		w.stalledGauge.Set(float64(stalledNow))
	}
	for _, e := range edges {
		if e.toStalled {
			if w.stalls != nil {
				w.stalls.Inc()
			}
			if w.journal != nil {
				w.journal.Append(events.Event{
					Type:   events.TypeWatchdogStall,
					Detail: e.name + ": " + e.detail,
					Trace:  e.trace,
					Fields: map[string]int64{
						"deadline_ms": e.deadline.Milliseconds(),
					},
				})
			}
			if w.onStall != nil {
				w.onStall(e.name, e.detail, e.trace)
			}
			continue
		}
		if w.recoveries != nil {
			w.recoveries.Inc()
		}
		if w.journal != nil {
			w.journal.Append(events.Event{
				Type:   events.TypeWatchdogRecover,
				Detail: e.name,
				Fields: map[string]int64{
					"stalled_ms": e.stalledFor.Milliseconds(),
				},
			})
		}
	}
}

// Run ticks every interval until stop is closed; call it in a
// goroutine. Steady-state cost is one Check call per probe
// per tick — atomic loads and a few comparisons — so the default 250ms
// cadence stays far under 1% of a busy write path.
func (w *Watchdog) Run(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case at := <-t.C:
			w.Tick(at)
		case <-stop:
			return
		}
	}
}
