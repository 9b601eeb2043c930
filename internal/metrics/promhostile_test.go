package metrics

import (
	"strings"
	"testing"
)

// countSamples counts sample lines (not TYPE/HELP comments) whose series
// name is exactly name.
func countSamples(page, name string) int {
	n := 0
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			n++
		}
	}
	return n
}

// Hostile registry keys must never yield an unscrapable exposition: the
// encoder escapes, drops or dedups them, and the resulting page always
// passes the same validator CI's check-metrics step runs.

func TestPromHostileNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`evil name{label="x"} 1`).Add(1)
	reg.Counter("newline\ninjected 42").Add(2)
	reg.Gauge("0starts.with.digit").Set(3)
	reg.Counter("ünïcödé.bytes").Add(4)
	reg.Counter("~~~").Add(5) // sanitizes to "___"
	reg.Counter("core.writes").Add(6)

	page := DumpProm(reg.Snapshot())
	if err := ValidatePromText(strings.NewReader(page)); err != nil {
		t.Fatalf("hostile names made the page unscrapable: %v\npage:\n%s", err, page)
	}
	if strings.Contains(page, "evil name") || strings.Contains(page, "injected 42") {
		t.Fatalf("raw hostile name leaked into exposition:\n%s", page)
	}
	if !strings.Contains(page, "core_writes 6") {
		t.Fatalf("well-formed metric missing from exposition:\n%s", page)
	}
}

func TestPromCollisionAfterSanitization(t *testing.T) {
	// "a.b" and "a_b" both sanitize to "a_b"; a duplicate series (and
	// duplicate TYPE line) would make the page invalid. Only one may
	// survive.
	ms := []Metric{
		{Kind: "counter", Name: "a.b", Value: 1},
		{Kind: "counter", Name: "a_b", Value: 2},
	}
	page := DumpProm(ms)
	if err := ValidatePromText(strings.NewReader(page)); err != nil {
		t.Fatalf("collision produced invalid page: %v\npage:\n%s", err, page)
	}
	if got := countSamples(page, "a_b"); got != 1 {
		t.Fatalf("want exactly one a_b sample, got %d:\n%s", got, page)
	}
}

func TestPromHistogramSuffixCollision(t *testing.T) {
	// A histogram "lat" expands to lat_bucket/lat_sum/lat_count; a scalar
	// literally named "lat_count" must not duplicate the expansion.
	h := NewHistogram()
	h.Observe(10)
	ms := []Metric{
		{Kind: "hist", Name: "lat", Hist: h.Snapshot()},
		{Kind: "counter", Name: "lat_count", Value: 99},
	}
	page := DumpProm(ms)
	if err := ValidatePromText(strings.NewReader(page)); err != nil {
		t.Fatalf("suffix collision produced invalid page: %v\npage:\n%s", err, page)
	}
	if got := countSamples(page, "lat_count"); got != 1 {
		t.Fatalf("want exactly one lat_count sample, got %d:\n%s", got, page)
	}
	// And the reverse order: scalar first reserves the name, histogram is
	// dropped whole rather than half-emitted.
	page = DumpProm([]Metric{
		{Kind: "counter", Name: "lat_count", Value: 99},
		{Kind: "hist", Name: "lat", Hist: h.Snapshot()},
	})
	if err := ValidatePromText(strings.NewReader(page)); err != nil {
		t.Fatalf("reverse suffix collision produced invalid page: %v\npage:\n%s", err, page)
	}
}

func TestPromNameDroppedWhenEmpty(t *testing.T) {
	page := DumpProm([]Metric{
		{Kind: "counter", Name: "", Value: 1},
		{Kind: "counter", Name: "ok", Value: 2},
	})
	if err := ValidatePromText(strings.NewReader(page)); err != nil {
		t.Fatalf("empty name produced invalid page: %v\npage:\n%s", err, page)
	}
}

func TestValidatePromTextRejectsBadPages(t *testing.T) {
	bad := []string{
		"",                 // no samples
		"9metric 1\n",      // name starts with digit
		"m{le=\"0.1\" 1\n", // unterminated label block
		"m 1\nm nan-ish\n", // bad value
		"# TYPE m counter\n# TYPE m counter\nm 1\n", // duplicate TYPE
		"m{=\"v\"} 1\n",       // empty label name
		"m 1 2 3\n",           // garbage after value and timestamp
		"m 1 notatimestamp\n", // bad sample timestamp
		"m_bucket{le=\"1024\"} 5 # {trace_id=\"00c0ffee00c0ffee\"} 812\n", // OpenMetrics trace-ID suffix
	}
	for _, page := range bad {
		if err := ValidatePromText(strings.NewReader(page)); err == nil {
			t.Errorf("validator accepted bad page %q", page)
		}
	}
	good := "# HELP m help text\n# TYPE m counter\nm{app=\"fidr\",q=\"a\\\"b\"} 1\nn +Inf\no{a=\"x#y\"} 3 1754556000\n"
	if err := ValidatePromText(strings.NewReader(good)); err != nil {
		t.Errorf("validator rejected good page: %v", err)
	}
}
