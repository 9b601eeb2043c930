// Package events is a bounded structured event journal: typed records
// for the storage plane's discrete occurrences — GC runs, checkpoints,
// WAL truncation, recovery, rebalance, SLO breach transitions — kept in
// a fixed-size ring and served as JSONL. One journal is shared by every
// group in a cluster: Group labels each record's origin, the monotonic
// Seq gives the cluster-wide interleaving, and ring overwrite discards
// the oldest records first (freshest wins).
//
// The package deliberately depends only on the standard library so that
// every layer (core, metrics, the daemons) can emit into it without
// import cycles.
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Event types emitted by the storage plane.
const (
	TypeGCRun       = "gc_run"
	TypeCheckpoint  = "checkpoint"
	TypeWALTruncate = "wal_truncate"
	TypeRecovery    = "recovery"
	TypeSLOBreach   = "slo_breach_begin"
	TypeSLORecover  = "slo_breach_end"

	// Health-plane types: a watchdog probe crossing its deadline, the
	// matching recovery edge, and a recorder snapshot landing on
	// disk.
	TypeWatchdogStall   = "watchdog_stall"
	TypeWatchdogRecover = "watchdog_recover"
	TypeSnapshot        = "health_snapshot"
)

// Event is one journal record. Fields carries the type-specific
// numeric payload (e.g. bytes_reclaimed for a gc_run); Trace is the ID
// of the trace a collector keeps for the originating request (it
// resolves at /traces/spans), empty otherwise.
type Event struct {
	Seq          uint64           `json:"seq"`
	TimeUnixNano int64            `json:"time_unix_nano"`
	Type         string           `json:"type"`
	Group        int              `json:"group"`
	Trace        string           `json:"trace,omitempty"`
	Detail       string           `json:"detail,omitempty"`
	Fields       map[string]int64 `json:"fields,omitempty"`
}

// Encode writes evs as JSONL, one event per line: the framing of
// /events and of a snapshot's events.jsonl. Decode is its inverse.
func Encode(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads JSONL back into events; blank lines are nothing. Input
// that is not an event ends it: the events before come back with the
// error.
func Decode(r io.Reader) ([]Event, error) {
	var evs []Event
	for dec := json.NewDecoder(r); ; {
		var ev Event
		switch err := dec.Decode(&ev); err {
		case nil:
			evs = append(evs, ev)
		case io.EOF:
			return evs, nil
		default:
			return evs, fmt.Errorf("event %d: %w", len(evs)+1, err)
		}
	}
}

// Journal is a bounded, concurrency-safe event ring.
type Journal struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	full    bool
	seq     uint64
	dropped uint64
}

// NewJournal creates a journal retaining the last capacity events
// (<= 0 selects 1024).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Journal{ring: make([]Event, 0, capacity)}
}

// Append stamps ev with the next sequence number and the current time,
// then appends it, overwriting the oldest record when full. It returns
// the assigned sequence number.
func (j *Journal) Append(ev Event) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev.Seq = j.seq
	if ev.TimeUnixNano == 0 {
		ev.TimeUnixNano = time.Now().UnixNano()
	}
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, ev)
	} else {
		j.ring[j.next] = ev
		j.next = (j.next + 1) % cap(j.ring)
		j.full = true
		j.dropped++
	}
	return ev.Seq
}

// Stats reports journal totals: appended is the number of events ever
// recorded (the latest sequence number), dropped how many were
// overwritten by ring wrap.
func (j *Journal) Stats() (appended, dropped uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq, j.dropped
}

// Since returns the retained events with Seq > seq, oldest first.
// Since(0) returns everything retained.
func (j *Journal) Since(seq uint64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	ordered := make([]Event, 0, len(j.ring))
	if j.full {
		ordered = append(ordered, j.ring[j.next:]...)
		ordered = append(ordered, j.ring[:j.next]...)
	} else {
		ordered = append(ordered, j.ring...)
	}
	out := ordered[:0]
	for _, ev := range ordered {
		if ev.Seq > seq {
			out = append(out, ev)
		}
	}
	return out
}

// badParam mirrors metrics.HTTPBadParam (this package stays
// stdlib-only, so the ten lines are duplicated rather than imported):
// 400 with a JSON body naming the parameter, value and expected shape.
func badParam(w http.ResponseWriter, param, got, want string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
		Param string `json:"param"`
		Got   string `json:"got"`
		Want  string `json:"want"`
	}{"bad query parameter", param, got, want})
}

// ServeHTTP serves the journal as JSONL (one event per line, newest
// last). Query parameters:
//
//	since  only events with seq > since (enables tailing)
//	type   only events of this type
//	n      only the newest n matching events
//
// Malformed values — including present-but-empty ones like ?since= —
// are a 400 with a JSON error body, never a 200 with silent defaults.
func (j *Journal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if q.Has("since") {
		n, err := strconv.ParseUint(q.Get("since"), 10, 64)
		if err != nil {
			badParam(w, "since", q.Get("since"), "unsigned integer sequence number")
			return
		}
		since = n
	}
	evs := j.Since(since)
	if typ := q.Get("type"); typ != "" {
		kept := evs[:0]
		for _, ev := range evs {
			if ev.Type == typ {
				kept = append(kept, ev)
			}
		}
		evs = kept
	}
	if q.Has("n") {
		n, err := strconv.Atoi(q.Get("n"))
		if err != nil || n < 0 {
			badParam(w, "n", q.Get("n"), "non-negative integer")
			return
		}
		if n < len(evs) {
			evs = evs[len(evs)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	Encode(w, evs) // a failed write is a client that went away
}
