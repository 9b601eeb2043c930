package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// bodyFiles maps a route to the committed response body that stands in
// for it under testdata/<case>/.
var bodyFiles = map[string]string{
	"/metrics": "metrics.txt", "/metrics/series": "series.json", "/events": "events.jsonl",
	"/debug/bundle": "bundle.tar.gz", "/capacity": "capacity.json", "/capacity/containers": "containers.json",
}

// TestGoldenRenderings pins what the HTTP verbs print. The bodies under
// testdata/ were scraped from live daemons (single node with a WAL, an
// 11-group cluster cut down to groups 0, 1 and 10, a node with a wedged
// worker); each .golden is what the fidrcli built before the verbs were
// table-driven printed for them. A rendering changes only together with
// its golden, deliberately.
func TestGoldenRenderings(t *testing.T) {
	local := time.Local
	time.Local = time.UTC // events prints wall-clock times
	t.Cleanup(func() { time.Local = local })

	for _, tc := range []struct {
		golden, bodies, verb string
		o                    options
		wantErr              string
	}{
		{"stats_single", "single", "stats", options{}, ""},
		{"stats_cluster", "cluster", "stats", options{}, ""},
		{"top", "cluster", "top", options{frames: 1, interval: time.Second}, ""},
		{"capacity", "capacity", "capacity", options{threshold: 0.25}, ""},
		{"events", "cluster", "events", options{}, ""},
		{"doctor_healthy", "single", "doctor", options{fsyncP99: 100 * time.Millisecond}, ""},
		{"doctor_stalled", "stalled", "doctor", options{fsyncP99: 100 * time.Millisecond}, "1 check(s) failed"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, err := os.ReadFile(filepath.Join("testdata", tc.bodies, bodyFiles[r.URL.Path]))
				if err != nil {
					http.NotFound(w, r)
					return
				}
				w.Write(body)
			}))
			defer srv.Close()
			v, err := views[tc.verb](&tc.o)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := v.run(srv.URL, &out); (err == nil) != (tc.wantErr == "") || (err != nil && err.Error() != tc.wantErr) {
				t.Fatalf("%s: error %v, want %q", tc.verb, err, tc.wantErr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("fidrcli %s over testdata/%s:\n--- got ---\n%s--- want ---\n%s", tc.verb, tc.bodies, out.String(), want)
			}
		})
	}
}

// TestQueryValuesAreEscaped: what the user typed after -type or
// -threshold reaches the server as that one parameter's value, whatever
// bytes it holds. Pasted into the query string, `-type 'gc_run&n=0'`
// was a second parameter and printed an empty tail with exit 0.
func TestQueryValuesAreEscaped(t *testing.T) {
	var got []url.Values
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.URL.Query())
		if r.URL.Path != "/events" {
			w.Write([]byte("{}"))
		}
	}))
	defer srv.Close()
	for _, tc := range []struct {
		verb        string
		o           options
		param, want string
		params      int
	}{
		{"events", options{evType: "gc_run&n=0"}, "type", "gc_run&n=0", 2},
		{"events", options{evType: "a b#c"}, "type", "a b#c", 2},
		{"events", options{}, "since", "0", 1},
		{"capacity", options{threshold: 1e-7}, "threshold", "1e-07", 1},
	} {
		got = nil
		v, err := views[tc.verb](&tc.o)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.run(srv.URL, &bytes.Buffer{}); err != nil {
			t.Fatalf("%s %+v: %v", tc.verb, tc.o, err)
		}
		if q := got[0]; q.Get(tc.param) != tc.want || len(q) != tc.params {
			t.Errorf("%s %+v sent query %v, want %s=%q among %d parameter(s)", tc.verb, tc.o, q, tc.param, tc.want, tc.params)
		}
	}
}
