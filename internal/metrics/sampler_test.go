package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func sampleAt(s *Sampler, base time.Time, secs ...int) {
	for _, sec := range secs {
		s.Sample(base.Add(time.Duration(sec) * time.Second))
	}
}

func findSeries(t *testing.T, d SeriesDump, name string) Series {
	t.Helper()
	for _, se := range d.Series {
		if se.Name == name {
			return se
		}
	}
	t.Fatalf("series %q not found in %d series", name, len(d.Series))
	return Series{}
}

func TestSamplerWindowStats(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dev.bytes")
	g := reg.Gauge("dev.queue_depth")
	s := NewSampler(reg, 16)
	base := time.Unix(1000, 0)

	for i, v := range []float64{4, 2, 8} {
		c.Add(1000)
		g.Set(v)
		s.Sample(base.Add(time.Duration(i) * time.Second))
	}

	d := s.Dump("", 0)
	if d.Samples != 3 {
		t.Fatalf("Samples = %d, want 3", d.Samples)
	}
	if d.WindowSeconds != 2 {
		t.Fatalf("WindowSeconds = %v, want 2", d.WindowSeconds)
	}
	q := findSeries(t, d, "dev.queue_depth")
	if q.Min != 2 || q.Max != 8 || q.Last != 8 {
		t.Fatalf("gauge window = min %v max %v last %v, want 2/8/8", q.Min, q.Max, q.Last)
	}
	if q.Mean < 4.6 || q.Mean > 4.7 {
		t.Fatalf("gauge mean = %v, want ~4.667", q.Mean)
	}
	b := findSeries(t, d, "dev.bytes")
	// 1000 -> 3000 over 2 s.
	if b.RatePerSec != 1000 {
		t.Fatalf("counter rate = %v, want 1000", b.RatePerSec)
	}
	if b.Duty != nil {
		t.Fatalf("non-busy counter got a duty cycle")
	}
}

// TestSamplerCounterReset covers a daemon restart mid-window: the
// counter drops toward zero between two samples. The negative delta
// must clamp to zero — post-reset growth still counts and the rate is
// never negative or zeroed by the end-vs-start comparison.
func TestSamplerCounterReset(t *testing.T) {
	var v float64
	g := GathererFunc(func() []Metric {
		return []Metric{{Kind: "counter", Name: "dev.ops", Value: v}}
	})
	s := NewSampler(g, 16)
	base := time.Unix(2000, 0)
	// 100 -> 180 -> (restart) 5 -> 65 over 3 s: increase 80 + 0 + 60.
	for i, val := range []float64{100, 180, 5, 65} {
		v = val
		s.Sample(base.Add(time.Duration(i) * time.Second))
	}
	se := findSeries(t, s.Dump("", 0), "dev.ops")
	want := (80.0 + 60.0) / 3.0
	if se.RatePerSec < want-1e-9 || se.RatePerSec > want+1e-9 {
		t.Fatalf("reset-guarded rate = %v, want %v", se.RatePerSec, want)
	}

	// Window that ends below its start (reset near the end): the old
	// formula (last-first)/dt went negative; now only the pre-reset
	// growth counts.
	s2 := NewSampler(g, 16)
	for i, val := range []float64{100, 160, 5} {
		v = val
		s2.Sample(base.Add(time.Duration(i) * time.Second))
	}
	se2 := findSeries(t, s2.Dump("", 0), "dev.ops")
	if se2.RatePerSec != 30 {
		t.Fatalf("rate after trailing reset = %v, want 30", se2.RatePerSec)
	}
}

func TestSamplerDutyCycle(t *testing.T) {
	reg := NewRegistry()
	busy := reg.Counter("ssd.data-ssd.busy_ns")
	s := NewSampler(reg, 8)
	base := time.Unix(0, 0)

	s.Sample(base)
	busy.Add(5e8) // 0.5 s busy over a 1 s window
	s.Sample(base.Add(time.Second))

	se := findSeries(t, s.Dump("ssd.", 0), "ssd.data-ssd.busy_ns")
	if se.Duty == nil {
		t.Fatal("busy_ns series has no duty cycle")
	}
	if *se.Duty < 0.49 || *se.Duty > 0.51 {
		t.Fatalf("duty = %v, want ~0.5", *se.Duty)
	}

	// Duty clamps at 1 even if the model accumulates busy time faster
	// than wall time (overlapping commands).
	busy.Add(10e9)
	s.Sample(base.Add(2 * time.Second))
	se = findSeries(t, s.Dump("", 0), "ssd.data-ssd.busy_ns")
	if *se.Duty != 1 {
		t.Fatalf("duty = %v, want clamped 1", *se.Duty)
	}
}

func TestSamplerRingWraps(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	s := NewSampler(reg, 4)
	base := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		c.Add(1)
		s.Sample(base.Add(time.Duration(i) * time.Second))
	}
	d := s.Dump("", 0)
	if d.Samples != 4 {
		t.Fatalf("Samples = %d, want capacity 4", d.Samples)
	}
	se := findSeries(t, d, "n")
	if len(se.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(se.Points))
	}
	// Oldest retained sample is the 7th (counter value 7).
	if se.Points[0].V != 7 || se.Last != 10 {
		t.Fatalf("window = [%v..%v], want [7..10]", se.Points[0].V, se.Last)
	}
	for i := 1; i < len(se.Points); i++ {
		if se.Points[i].UnixNS <= se.Points[i-1].UnixNS {
			t.Fatalf("points out of order: %v", se.Points)
		}
	}
}

func TestSamplerHistogramCount(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("stage.hash.ns")
	s := NewSampler(reg, 8)
	h.Observe(10)
	h.Observe(20)
	s.Sample(time.Unix(0, 0))
	se := findSeries(t, s.Dump("", 0), "stage.hash.ns.count")
	if se.Last != 2 || se.Kind != "counter" {
		t.Fatalf("hist count series = %+v, want last 2 counter", se)
	}
}

func TestSamplerHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.bytes").Add(5)
	reg.Gauge("b.depth").Set(3)
	s := NewSampler(reg, 8)
	sampleAt(s, time.Unix(0, 0), 0, 1)

	srv := httptest.NewServer(Handler(reg, nil, []Route{{Path: "/metrics/series", Handler: s}}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics/series?prefix=a.&last=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var d SeriesDump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if len(d.Series) != 1 || d.Series[0].Name != "a.bytes" {
		t.Fatalf("filtered series = %+v, want only a.bytes", d.Series)
	}
	if len(d.Series[0].Points) != 1 {
		t.Fatalf("last=1 returned %d points", len(d.Series[0].Points))
	}

	if resp, err := srv.Client().Get(srv.URL + "/metrics/series?last=x"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("bad last parameter: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestSamplerWindowParam covers the ?window= time filter: a valid
// duration trims old samples, malformed or non-positive values answer
// 400 with the uniform JSON error body naming the parameter.
func TestSamplerWindowParam(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.bytes")
	s := NewSampler(reg, 16)
	for i := 0; i < 10; i++ {
		c.Add(1)
		s.Sample(time.Unix(int64(i), 0))
	}

	srv := httptest.NewServer(Handler(reg, nil, []Route{{Path: "/metrics/series", Handler: s}}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics/series?window=3s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("?window=3s: status %d", resp.StatusCode)
	}
	var d SeriesDump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	se := findSeries(t, d, "a.bytes")
	// Samples land at t=0..9s; a 3s window from the newest keeps 6..9.
	if got := len(se.Points); got != 4 {
		t.Fatalf("3s window kept %d points, want 4 (%+v)", got, se.Points)
	}

	for _, query := range []string{"?window=", "?window=fast", "?window=-5s", "?window=0s"} {
		resp, err := srv.Client().Get(srv.URL + "/metrics/series" + query)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
			Param string `json:"param"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", query, resp.StatusCode)
			continue
		}
		if derr != nil || body.Param != "window" || body.Error == "" {
			t.Errorf("%s: error body %+v (decode err %v), want param \"window\"", query, body, derr)
		}
	}
}

func TestHandlerHealthReady(t *testing.T) {
	reg := NewRegistry()
	ready := false
	srv := httptest.NewServer(Handler(reg, func() bool { return ready }, nil))
	defer srv.Close()

	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("/healthz = %d", got)
	}
	if got := get("/readyz"); got != 503 {
		t.Fatalf("/readyz before ready = %d, want 503", got)
	}
	ready = true
	if got := get("/readyz"); got != 200 {
		t.Fatalf("/readyz after ready = %d, want 200", got)
	}
}
