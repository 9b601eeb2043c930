package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fidr/internal/metrics/events"
)

// SLO plane: declarative latency objectives per op class evaluated as
// rolling multi-window burn rates, in the style of the SRE-workbook
// multiwindow alerts. An Objective says "Target fraction of <Hist>
// observations complete within Threshold"; the evaluator samples the
// histogram's cumulative buckets on the same cadence as the Sampler,
// keeps a bounded ring of (good, total) counts, and derives:
//
//	error rate  bad/total over a window
//	burn rate   error rate / (1 - Target); 1.0 burns the budget
//	            exactly as fast as the objective allows
//	breached    fast AND slow windows both burning > 1 (multiwindow,
//	            so a single slow request can't page and a sustained
//	            burn can't hide)
//	budget      1 - (window error rate / budget), the fraction of the
//	            retained window's error budget still unspent
//
// Good counts come from the histogram's log-linear buckets with linear
// interpolation inside the bucket that straddles the threshold, so the
// estimate carries the same bounded relative error as the quantiles.

// Objective is one declarative latency objective.
type Objective struct {
	// Name labels the objective ("write-h", "read").
	Name string `json:"name"`
	// Hist is the latency histogram the objective evaluates
	// (nanosecond observations, e.g. "req.write.ns").
	Hist string `json:"hist"`
	// Threshold is the latency bound a request must meet to be "good".
	Threshold time.Duration `json:"threshold_ns"`
	// Target is the required good fraction in (0, 1), e.g. 0.999.
	Target float64 `json:"target"`
}

// Budget returns the objective's error budget (allowed bad fraction).
func (o Objective) Budget() float64 { return 1 - o.Target }

// DefaultObjectives returns the stock per-op-class objectives: three
// write tiers (H strict, M mid, L loose — mirroring the Write-H/M/L
// workload classes) and one read objective. Thresholds are set for the
// simulated-hardware latencies this reproduction runs at.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "write-h", Hist: "req.write.ns", Threshold: 2 * time.Millisecond, Target: 0.999},
		{Name: "write-m", Hist: "req.write.ns", Threshold: 10 * time.Millisecond, Target: 0.99},
		{Name: "write-l", Hist: "req.write.ns", Threshold: 50 * time.Millisecond, Target: 0.95},
		{Name: "read", Hist: "req.read.ns", Threshold: 20 * time.Millisecond, Target: 0.99},
	}
}

// ParseObjectives parses a declarative objective spec:
// "name:hist:threshold:target[,...]", e.g.
// "write-h:req.write.ns:2ms:99.9,read:req.read.ns:20ms:99".
// Target accepts a percentage (> 1) or a fraction (< 1). Names are
// unique and spelled in the registry's alphabet, [A-Za-z0-9_.-]: each
// objective publishes its own slo.<name>.* gauges, and a name with a
// space or a brace in it would be a series the dump format cannot carry.
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) != 4 || f[0] == "" || f[1] == "" {
			return nil, fmt.Errorf("slo: objective %q: want name:hist:threshold:target", part)
		}
		if strings.IndexFunc(f[0], notNameRune) >= 0 {
			return nil, fmt.Errorf("slo: objective %q: name %q is a series name, want [A-Za-z0-9_.-]+", part, f[0])
		}
		if seen[f[0]] {
			return nil, fmt.Errorf("slo: objective %q: name %q is already taken", part, f[0])
		}
		seen[f[0]] = true
		th, err := time.ParseDuration(f[2])
		if err != nil || th <= 0 {
			return nil, fmt.Errorf("slo: objective %q: bad threshold %q", part, f[2])
		}
		// strconv, not Sscanf: "99.9x" is an error, not a truncated 99.9.
		target, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return nil, fmt.Errorf("slo: objective %q: bad target %q", part, f[3])
		}
		if target > 1 {
			target /= 100
		}
		if !(target > 0 && target < 1) {
			return nil, fmt.Errorf("slo: objective %q: target must be in (0,1) or (0,100)", part)
		}
		out = append(out, Objective{Name: f[0], Hist: f[1], Threshold: th, Target: target})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: empty objective spec")
	}
	return out, nil
}

// notNameRune reports a rune outside the alphabet series names are
// written in.
func notNameRune(r rune) bool {
	return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
		r == '_' || r == '.' || r == '-')
}

// Burn-rate windows: the fast window catches an active burn, the slow
// window confirms it is sustained.
const (
	sloFastWindow = time.Minute
	sloSlowWindow = 5 * time.Minute
)

// sloSample is one evaluation tick: cumulative good/total per objective.
type sloSample struct {
	at          time.Time
	good, total []float64
}

// SLO evaluates a set of objectives against a gatherer's histograms.
type SLO struct {
	g    Gatherer
	objs []Objective

	// Per-objective gauges, published when Instrument was called.
	budget, burnFast, burnSlow, errRate []*Gauge

	// journal receives breach-transition events when SetEventJournal was
	// called; prevBreached tracks per-objective state so only edges emit.
	// onBreach, when set, fires once per healthy→breached edge (the
	// health plane's snapshot-recorder trigger).
	journal      *events.Journal
	onBreach     func(objective string)
	prevBreached []bool

	samples ring[sloSample]
}

// NewSLO builds an evaluator over g retaining capacity ticks
// (<= 0 selects 300 — five minutes at a 1s cadence, covering the slow
// window).
func NewSLO(g Gatherer, objs []Objective, capacity int) *SLO {
	if capacity <= 0 {
		capacity = 300
	}
	if len(objs) == 0 {
		objs = DefaultObjectives()
	}
	return &SLO{g: g, objs: append([]Objective(nil), objs...), samples: ring[sloSample]{cap: capacity}}
}

// Objectives returns the evaluated objectives.
func (s *SLO) Objectives() []Objective { return append([]Objective(nil), s.objs...) }

// Instrument publishes per-objective error-budget gauges on reg:
// slo.<name>.budget_remaining, slo.<name>.burn_fast, slo.<name>.burn_slow
// and slo.<name>.err_rate, refreshed on every Sample.
func (s *SLO) Instrument(reg *Registry) {
	for _, o := range s.objs {
		s.budget = append(s.budget, reg.Gauge("slo."+o.Name+".budget_remaining"))
		s.burnFast = append(s.burnFast, reg.Gauge("slo."+o.Name+".burn_fast"))
		s.burnSlow = append(s.burnSlow, reg.Gauge("slo."+o.Name+".burn_slow"))
		s.errRate = append(s.errRate, reg.Gauge("slo."+o.Name+".err_rate"))
	}
}

// goodTotal splits a histogram snapshot at the threshold: observations
// at or under it count as good, with linear interpolation inside the
// straddling bucket.
func goodTotal(h HistogramSnapshot, thresholdNS float64) (good, total float64) {
	for _, b := range h.Buckets {
		total += float64(b.Count)
		switch {
		case b.Upper <= thresholdNS:
			good += float64(b.Count)
		case b.Lower < thresholdNS:
			frac := (thresholdNS - b.Lower) / (b.Upper - b.Lower)
			good += frac * float64(b.Count)
		}
	}
	return good, total
}

// Sample takes one evaluation tick at the given time.
func (s *SLO) Sample(at time.Time) {
	hists := make(map[string]HistogramSnapshot)
	for _, m := range s.g.Snapshot() {
		if m.Kind == "hist" {
			hists[m.Name] = m.Hist
		}
	}
	smp := sloSample{
		at:    at,
		good:  make([]float64, len(s.objs)),
		total: make([]float64, len(s.objs)),
	}
	for i, o := range s.objs {
		if h, ok := hists[o.Hist]; ok {
			smp.good[i], smp.total[i] = goodTotal(h, float64(o.Threshold.Nanoseconds()))
		}
	}
	s.samples.push(smp)
	if s.budget == nil && s.journal == nil && s.onBreach == nil {
		return
	}
	sts := s.Status()
	if s.budget != nil {
		for i, st := range sts {
			s.budget[i].Set(st.BudgetRemaining)
			s.burnFast[i].Set(st.BurnFast)
			s.burnSlow[i].Set(st.BurnSlow)
			s.errRate[i].Set(st.ErrorRate)
		}
	}
	if s.journal != nil || s.onBreach != nil {
		if s.prevBreached == nil {
			s.prevBreached = make([]bool, len(sts))
		}
		for i, st := range sts {
			if st.Breached != s.prevBreached[i] {
				if s.journal != nil {
					typ := events.TypeSLOBreach
					if !st.Breached {
						typ = events.TypeSLORecover
					}
					s.journal.Append(events.Event{
						Type:   typ,
						Detail: st.Name,
						Fields: map[string]int64{
							"burn_fast_milli":   int64(st.BurnFast * 1000),
							"burn_slow_milli":   int64(st.BurnSlow * 1000),
							"err_rate_milli":    int64(st.ErrorRate * 1000),
							"budget_left_milli": int64(st.BudgetRemaining * 1000),
						},
					})
				}
				if st.Breached && s.onBreach != nil {
					s.onBreach(st.Name)
				}
			}
			s.prevBreached[i] = st.Breached
		}
	}
}

// OnBreach registers a callback fired (on the Sample goroutine) once
// per healthy→breached transition; the health plane uses it to capture
// a snapshot-recorder snapshot while the breach evidence is still live.
// Long work must be handed off so sampling keeps its cadence.
func (s *SLO) OnBreach(fn func(objective string)) { s.onBreach = fn }

// SetEventJournal attaches a journal that receives slo_breach_begin /
// slo_breach_end events on breach-state transitions (edges only, so a
// sustained breach is one event, not one per tick).
func (s *SLO) SetEventJournal(j *events.Journal) { s.journal = j }

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Objective
	// WindowSeconds spans the full retained evaluation window.
	WindowSeconds float64 `json:"window_seconds"`
	// Good and Total are the window's request deltas.
	Good  float64 `json:"good"`
	Total float64 `json:"total"`
	// ErrorRate is bad/total over the retained window.
	ErrorRate float64 `json:"err_rate"`
	// BurnFast/BurnSlow/BurnWindow are error rate over budget for the
	// 1m, 5m and full retained windows; 1.0 spends the budget exactly
	// as fast as the objective allows.
	BurnFast   float64 `json:"burn_fast"`
	BurnSlow   float64 `json:"burn_slow"`
	BurnWindow float64 `json:"burn_window"`
	// BudgetRemaining is the unspent fraction of the retained window's
	// error budget (negative when overspent).
	BudgetRemaining float64 `json:"budget_remaining"`
	// Breached: both multiwindow burn rates above 1.
	Breached bool `json:"breached"`
}

// errRateOver computes the error rate for objective i over the ticks
// not older than window before the newest tick. Deltas are clamped at
// zero per the counter-reset rule.
func errRateOver(samples []sloSample, i int, window time.Duration) float64 {
	if len(samples) < 2 {
		return 0
	}
	newest := samples[len(samples)-1]
	oldest := samples[0]
	if window > 0 {
		cut := newest.at.Add(-window)
		for _, smp := range samples {
			if !smp.at.Before(cut) {
				oldest = smp
				break
			}
		}
	}
	dTotal := newest.total[i] - oldest.total[i]
	dGood := newest.good[i] - oldest.good[i]
	if dTotal <= 0 {
		return 0
	}
	if dGood < 0 {
		dGood = 0
	}
	bad := dTotal - dGood
	if bad < 0 {
		bad = 0
	}
	return bad / dTotal
}

// Status evaluates every objective over the retained ticks.
func (s *SLO) Status() []ObjectiveStatus {
	samples := s.samples.ordered()
	out := make([]ObjectiveStatus, len(s.objs))
	var window float64
	if len(samples) >= 2 {
		window = samples[len(samples)-1].at.Sub(samples[0].at).Seconds()
	}
	for i, o := range s.objs {
		st := ObjectiveStatus{Objective: o, WindowSeconds: window}
		if len(samples) >= 2 {
			st.Good = samples[len(samples)-1].good[i] - samples[0].good[i]
			st.Total = samples[len(samples)-1].total[i] - samples[0].total[i]
			if st.Good < 0 {
				st.Good = 0
			}
			if st.Total < 0 {
				st.Total = 0
			}
			st.ErrorRate = errRateOver(samples, i, 0)
			budget := o.Budget()
			st.BurnWindow = st.ErrorRate / budget
			st.BurnFast = errRateOver(samples, i, sloFastWindow) / budget
			st.BurnSlow = errRateOver(samples, i, sloSlowWindow) / budget
			// Floor at zero: a spent budget is spent, and the burn rates
			// already say how far over it ran.
			st.BudgetRemaining = 1 - st.BurnWindow
			if st.BudgetRemaining < 0 {
				st.BudgetRemaining = 0
			}
			st.Breached = st.BurnFast > 1 && st.BurnSlow > 1
		} else {
			st.BudgetRemaining = 1
		}
		out[i] = st
	}
	return out
}

// SLODump is the /slo response body.
type SLODump struct {
	WindowSeconds float64           `json:"window_seconds"`
	Objectives    []ObjectiveStatus `json:"objectives"`
}

// Dump assembles the endpoint view.
func (s *SLO) Dump() SLODump {
	sts := s.Status()
	d := SLODump{Objectives: sts}
	if len(sts) > 0 {
		d.WindowSeconds = sts[0].WindowSeconds
	}
	return d
}

// ServeHTTP serves the JSON dump at /slo.
func (s *SLO) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Dump())
}

// RenderSLO renders objective statuses with the harness table renderer
// (the `fidrcli slo` dashboard body).
func RenderSLO(d SLODump) string {
	tab := NewTable(fmt.Sprintf("service-level objectives (window %.0fs)", d.WindowSeconds),
		"objective", "target", "threshold", "good/total", "err_rate", "burn 1m", "burn 5m", "budget left", "state")
	for _, st := range d.Objectives {
		state := "ok"
		if st.Breached {
			state = "BREACHED"
		} else if st.BurnFast > 1 {
			state = "burning"
		}
		tab.Row(
			st.Name,
			fmt.Sprintf("%g%%", st.Target*100),
			st.Threshold.String(),
			fmt.Sprintf("%.0f/%.0f", st.Good, st.Total),
			fmt.Sprintf("%.4f", st.ErrorRate),
			fmt.Sprintf("%.2f", st.BurnFast),
			fmt.Sprintf("%.2f", st.BurnSlow),
			fmt.Sprintf("%.1f%%", st.BudgetRemaining*100),
			state,
		)
	}
	tab.Note("%d objectives; burn 1.0 spends the error budget exactly at the allowed rate", len(d.Objectives))
	return tab.String()
}
