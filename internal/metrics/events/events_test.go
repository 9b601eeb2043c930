package events

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func TestJournalRingOverwrite(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		seq := j.Append(Event{Type: TypeGCRun, Group: i})
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	evs := j.Since(0)
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest two were overwritten; the rest arrive oldest first.
	for i, ev := range evs {
		if want := uint64(i + 3); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
		if ev.TimeUnixNano == 0 {
			t.Fatal("append did not stamp a time")
		}
	}
	appended, dropped := j.Stats()
	if appended != 6 || dropped != 2 {
		t.Fatalf("Stats = %d appended, %d dropped; want 6, 2", appended, dropped)
	}
	if got := j.Since(5); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("Since(5) = %+v", got)
	}
	if got := j.Since(6); len(got) != 0 {
		t.Fatalf("Since(latest) returned %d events", len(got))
	}
}

func TestJournalServeHTTP(t *testing.T) {
	j := NewJournal(16)
	j.Append(Event{Type: TypeGCRun, Fields: map[string]int64{"bytes_reclaimed": 7}})
	j.Append(Event{Type: TypeCheckpoint})
	j.Append(Event{Type: TypeGCRun})

	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		j.ServeHTTP(rec, httptest.NewRequest("GET", "/events"+query, nil))
		return rec
	}
	lines := func(rec *httptest.ResponseRecorder) []Event {
		var out []Event
		sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
			}
			out = append(out, ev)
		}
		return out
	}

	if got := lines(get("")); len(got) != 3 || got[0].Fields["bytes_reclaimed"] != 7 {
		t.Fatalf("unfiltered dump: %+v", got)
	}
	if got := lines(get("?type=gc_run")); len(got) != 2 {
		t.Fatalf("type filter kept %d events", len(got))
	}
	if got := lines(get("?since=2")); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("since filter: %+v", got)
	}
	if got := lines(get("?n=1")); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("n keeps newest: %+v", got)
	}
	if rec := get("?since=notanumber"); rec.Code != 400 {
		t.Fatalf("bad since accepted: %d", rec.Code)
	}
	if rec := get("?n=-1"); rec.Code != 400 {
		t.Fatalf("bad n accepted: %d", rec.Code)
	}

	// Malformed params answer with the uniform JSON error body naming
	// the offending parameter — including present-but-empty values.
	for query, param := range map[string]string{
		"?since=":  "since",
		"?since=x": "since",
		"?n=":      "n",
		"?n=zero":  "n",
	} {
		rec := get(query)
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", query, rec.Code)
			continue
		}
		var body struct {
			Error string `json:"error"`
			Param string `json:"param"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Errorf("%s: non-JSON error body %q: %v", query, rec.Body.String(), err)
			continue
		}
		if body.Param != param || body.Error == "" {
			t.Errorf("%s: error body %+v, want param %q", query, body, param)
		}
	}
}

// TestDecodePrefix: Decode reads what Encode wrote, blank lines are
// nothing, and input that stops being events yields the events before
// it together with the error.
func TestDecodePrefix(t *testing.T) {
	want := []Event{
		{Seq: 1, TimeUnixNano: 5, Type: TypeGCRun, Group: 2, Detail: "a -> b", Fields: map[string]int64{"n": -1}},
		{Seq: 2, TimeUnixNano: 6, Type: TypeCheckpoint, Trace: "00ff"},
	}
	var b bytes.Buffer
	if err := Encode(&b, want); err != nil {
		t.Fatal(err)
	}
	if got, err := Decode(bytes.NewReader(b.Bytes())); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(Encode(evs)) = %+v, %v", got, err)
	}
	cut := "\n" + b.String() + "  \n{\"seq\": 3}\nnot an event\n{\"seq\": 5}\n"
	got, err := Decode(strings.NewReader(cut))
	if err == nil || len(got) != 3 || got[2].Seq != 3 || !reflect.DeepEqual(got[:2], want) {
		t.Fatalf("Decode of a stream that goes bad after 3 events = %+v, %v", got, err)
	}
}

// FuzzDecodeEvents: the journal decoder reads a live /events scrape and
// a recorder bundle's events.jsonl, so no bytes may panic it, and the
// events it returns — all of them, or those before the input went bad —
// are real ones: Encode writes them one per line, and those lines decode
// to the same events.
//
// CI runs this bounded (make fuzz).
func FuzzDecodeEvents(f *testing.F) {
	f.Add([]byte(`{"seq":1,"time_unix_nano":5,"type":"gc_run","group":2,"detail":"a -> b","fields":{"n":-1}}` + "\n" +
		`{"seq":2,"type":"checkpoint","trace":"00ff"}` + "\n"))
	f.Add([]byte("{\"seq\":1}\n\n  \nnot json\n{\"seq\":2}\n"))
	f.Add([]byte(`{"seq":1}{"SEQ":2,"fields":{}}` + "\n" + `{"seq":"x"}`))
	f.Add([]byte("null\n[]\n"))
	f.Add([]byte("{\"detail\":\"\xff<\\ud800\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, _ := Decode(bytes.NewReader(data))
		var lines bytes.Buffer
		if err := Encode(&lines, evs); err != nil {
			t.Fatalf("decoded events do not encode: %v", err)
		}
		if n := bytes.Count(lines.Bytes(), []byte("\n")); n != len(evs) {
			t.Fatalf("%d events encoded to %d lines:\n%s", len(evs), n, lines.Bytes())
		}
		again, err := Decode(bytes.NewReader(lines.Bytes()))
		if err != nil || len(again) != len(evs) {
			t.Fatalf("%d events decoded, %d (%v) after Encode:\n%s", len(evs), len(again), err, lines.Bytes())
		}
		for i := range evs {
			// An empty field map is omitted on the wire.
			if len(evs[i].Fields) == 0 {
				evs[i].Fields = nil
			}
			if !reflect.DeepEqual(again[i], evs[i]) {
				t.Fatalf("event %d: %+v came back as %+v", i, evs[i], again[i])
			}
		}
	})
}
