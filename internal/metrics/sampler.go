package metrics

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sampler turns a Gatherer's point-in-time scalars into bounded time
// series: a fixed-size ring of periodic samples of every counter and
// gauge (histograms are summarized by their count). The ring gives the
// live system a short memory — enough for windowed min/mean/max, rates
// and device duty cycles — at constant cost regardless of uptime, which
// is what `fidrcli top` and the /metrics/series endpoint render.
//
// Duty cycles are the paper's device-utilization figures made live: any
// counter named "*.busy_ns" is interpreted as accumulated device busy
// time, and its windowed rate divided by wall time is the device's
// utilization over the window (clamped to [0, 1]).
type Sampler struct {
	g       Gatherer
	samples ring[sample]
}

// ring keeps the newest cap values pushed into it; the Sampler's scrapes
// and the SLO evaluator's ticks each live in one.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int // slot the next push overwrites once buf is full
	cap  int
}

// push appends v, overwriting the oldest value once the ring is full.
func (r *ring[T]) push(v T) {
	r.mu.Lock()
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % r.cap
	}
	r.mu.Unlock()
}

// ordered returns a copy of the retained values, oldest first.
func (r *ring[T]) ordered() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// sample is one scrape: a timestamp plus every scalar's value.
type sample struct {
	at time.Time
	// vals maps metric name to value; histograms store their count so
	// rate-of-observations is derivable.
	vals map[string]scalar
}

type scalar struct {
	kind string
	v    float64
}

// NewSampler creates a sampler over g keeping the last capacity samples
// (<= 0 selects 300, five minutes at the default 1s interval).
func NewSampler(g Gatherer, capacity int) *Sampler {
	if capacity <= 0 {
		capacity = 300
	}
	return &Sampler{g: g, samples: ring[sample]{cap: capacity}}
}

// Sample takes one scrape at the given time and appends it to the ring.
func (s *Sampler) Sample(at time.Time) {
	ms := s.g.Snapshot()
	vals := make(map[string]scalar, len(ms))
	for _, m := range ms {
		switch m.Kind {
		case "counter", "gauge":
			vals[m.Name] = scalar{kind: m.Kind, v: m.Value}
		case "hist":
			vals[m.Name+".count"] = scalar{kind: "counter", v: float64(m.Hist.Count)}
		}
	}
	s.samples.push(sample{at: at, vals: vals})
}

// Point is one sampled value.
type Point struct {
	// UnixNS is the sample time in Unix nanoseconds.
	UnixNS int64 `json:"t"`
	// V is the sampled value.
	V float64 `json:"v"`
}

// Series is one metric's sampled history with windowed statistics.
type Series struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Points are the retained samples, oldest first.
	Points []Point `json:"points"`
	// Min, Mean and Max summarize the retained window's values.
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	// Last is the newest sampled value.
	Last float64 `json:"last"`
	// RatePerSec is the counter's windowed increase per second; 0 for
	// gauges and for windows shorter than two samples. The increase is
	// the sum of per-interval deltas with negative deltas clamped to
	// zero, so a counter reset (daemon restart mid-window) dents the
	// rate instead of zeroing or inverting it.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Duty is the windowed duty cycle for "*.busy_ns" counters:
	// busy-nanoseconds accumulated per wall-nanosecond, clamped to
	// [0, 1]. Absent for other series.
	Duty *float64 `json:"duty,omitempty"`
}

// SeriesDump is the /metrics/series response body.
type SeriesDump struct {
	// Samples is the number of retained scrapes.
	Samples int `json:"samples"`
	// WindowSeconds spans the oldest to newest retained sample.
	WindowSeconds float64  `json:"window_seconds"`
	Series        []Series `json:"series"`
}

// Dump assembles the time-series view. prefix filters series by name
// prefix ("" keeps all); last bounds points per series (<= 0 keeps all
// retained samples).
func (s *Sampler) Dump(prefix string, last int) SeriesDump {
	return s.dump(prefix, last, 0)
}

// dump is Dump plus a wall-clock window: window > 0 keeps only samples
// within that span of the newest retained sample.
func (s *Sampler) dump(prefix string, last int, window time.Duration) SeriesDump {
	samples := s.samples.ordered()
	dump := SeriesDump{Samples: len(samples)}
	if len(samples) == 0 {
		return dump
	}
	if last > 0 && last < len(samples) {
		samples = samples[len(samples)-last:]
	}
	if window > 0 {
		cutoff := samples[len(samples)-1].at.Add(-window)
		for len(samples) > 1 && samples[0].at.Before(cutoff) {
			samples = samples[1:]
		}
	}
	dump.WindowSeconds = samples[len(samples)-1].at.Sub(samples[0].at).Seconds()

	names := make(map[string]string) // name -> kind, across the window
	for _, sm := range samples {
		for name, sc := range sm.vals {
			if strings.HasPrefix(name, prefix) {
				names[name] = sc.kind
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		se := Series{Name: name, Kind: names[name]}
		var sum float64
		for _, sm := range samples {
			sc, ok := sm.vals[name]
			if !ok {
				continue
			}
			p := Point{UnixNS: sm.at.UnixNano(), V: sc.v}
			if len(se.Points) == 0 || sc.v < se.Min {
				se.Min = sc.v
			}
			if len(se.Points) == 0 || sc.v > se.Max {
				se.Max = sc.v
			}
			sum += sc.v
			se.Points = append(se.Points, p)
		}
		if len(se.Points) == 0 {
			continue
		}
		se.Mean = sum / float64(len(se.Points))
		se.Last = se.Points[len(se.Points)-1].V
		if se.Kind == "counter" && len(se.Points) >= 2 {
			first, lastP := se.Points[0], se.Points[len(se.Points)-1]
			if dt := float64(lastP.UnixNS-first.UnixNS) / 1e9; dt > 0 {
				// Windowed increase, reset-guarded: sum consecutive
				// deltas, clamping negative ones (a restarted daemon's
				// counter dropping back toward zero) to zero, so the
				// post-reset growth still counts.
				var inc float64
				for i := 1; i < len(se.Points); i++ {
					if d := se.Points[i].V - se.Points[i-1].V; d > 0 {
						inc += d
					}
				}
				se.RatePerSec = inc / dt
				if strings.HasSuffix(name, ".busy_ns") {
					duty := se.RatePerSec / 1e9
					if duty < 0 {
						duty = 0
					}
					if duty > 1 {
						duty = 1
					}
					se.Duty = &duty
				}
			}
		}
		dump.Series = append(dump.Series, se)
	}
	return dump
}

// ServeHTTP serves the JSON dump; query parameters:
//
//	prefix  keep only series whose name starts with this prefix
//	last    keep only the newest N points per series
//	window  keep only points within this span of the newest sample
//	        (Go duration syntax, e.g. 30s, 5m)
//
// Malformed values — including present-but-empty ones like ?last= — are
// a 400 with a JSON error body, never a 200 with silent defaults.
func (s *Sampler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	last := 0
	if q.Has("last") {
		n, err := strconv.Atoi(q.Get("last"))
		if err != nil || n < 0 {
			HTTPBadParam(w, "last", q.Get("last"), "non-negative integer")
			return
		}
		last = n
	}
	var window time.Duration
	if q.Has("window") {
		d, err := time.ParseDuration(q.Get("window"))
		if err != nil || d <= 0 {
			HTTPBadParam(w, "window", q.Get("window"), "positive Go duration (e.g. 30s, 5m)")
			return
		}
		window = d
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(s.dump(q.Get("prefix"), last, window))
}
