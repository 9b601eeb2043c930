package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestGoodTotalInterpolation(t *testing.T) {
	h := HistogramSnapshot{Buckets: []BucketCount{
		{Lower: 0, Upper: 100, Count: 10},    // straddled at 50 -> 5 good
		{Lower: 100, Upper: 200, Count: 4},   // above threshold
		{Lower: 1000, Upper: 2000, Count: 1}, // far above
	}}
	good, total := goodTotal(h, 50)
	if total != 15 {
		t.Fatalf("total = %v, want 15", total)
	}
	if good != 5 {
		t.Fatalf("good = %v, want 5 (linear interpolation)", good)
	}
	good, _ = goodTotal(h, 200)
	if good != 14 {
		t.Fatalf("good at 200 = %v, want 14", good)
	}
}

// The table test's inputs, which also seed FuzzParseObjectives.
const goodObjectiveSpec = "write-h:req.write.ns:2ms:99.9, read:req.read.ns:20ms:0.99"

var badObjectiveSpecs = []string{"", "x:y:z", "a:h:2ms:150", "a:h:notadur:99", "a:h:2ms:0",
	"w:req.write.ns:2ms:99.9x", // Sscanf read this as 99.9
	"a:h:2ms:NaN",
	":h:2ms:99", "a::2ms:99",
	"a:h:2ms:99,a:g:1ms:50", // both would publish slo.a.*
	// A name is a series name: the dump cannot carry a space or a brace.
	"my obj:req.write.ns:2ms:99", "a{b:req.read.ns:1ms:99",
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives(goodObjectiveSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives, want 2", len(objs))
	}
	if objs[0].Threshold != 2*time.Millisecond || objs[0].Target < 0.999-1e-9 || objs[0].Target > 0.999+1e-9 {
		t.Fatalf("objective 0 = %+v", objs[0])
	}
	if objs[1].Target != 0.99 {
		t.Fatalf("objective 1 target = %v", objs[1].Target)
	}
	for _, bad := range badObjectiveSpecs {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", bad)
		}
	}
}

// TestSLOOnBreachAlone: the breach callback is promised once per
// healthy -> breached edge to whoever registered it, with or without
// gauges or a journal beside it. Sample used to return before looking
// for edges unless one of those two was attached.
func TestSLOOnBreachAlone(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("req.write.ns")
	s := NewSLO(reg, []Objective{{Name: "w", Hist: "req.write.ns", Threshold: time.Millisecond, Target: 0.99}}, 16)
	var breached []string
	s.OnBreach(func(objective string) { breached = append(breached, objective) })
	for tick := 0; tick < 8; tick++ {
		for i := 0; i < 10; i++ {
			h.Observe(float64(50 * time.Millisecond))
		}
		s.Sample(time.Unix(int64(tick), 0))
	}
	if st := s.Status()[0]; !st.Breached {
		t.Fatalf("every request 50x over the threshold and not breached: %+v", st)
	}
	if len(breached) != 1 || breached[0] != "w" {
		t.Fatalf("OnBreach calls over one sustained breach: %q, want one for \"w\"", breached)
	}
}

// TestSLOBurnRates drives a latency histogram through a burn: 100 good
// requests, then 100 over-threshold ones, and checks the multiwindow
// burn rates, the breach flag, and the published gauges.
func TestSLOBurnRates(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("req.write.ns")
	obj := Objective{Name: "write-h", Hist: "req.write.ns", Threshold: time.Millisecond, Target: 0.9}
	s := NewSLO(reg, []Objective{obj}, 16)
	gauges := NewRegistry()
	s.Instrument(gauges)

	base := time.Unix(3000, 0)
	s.Sample(base) // empty tick
	for i := 0; i < 100; i++ {
		h.Observe(1000) // 1µs: good
	}
	s.Sample(base.Add(60 * time.Second))
	for i := 0; i < 100; i++ {
		h.Observe(5e6) // 5ms: bad
	}
	s.Sample(base.Add(120 * time.Second))

	sts := s.Status()
	if len(sts) != 1 {
		t.Fatalf("%d statuses", len(sts))
	}
	st := sts[0]
	if st.Total != 200 || st.Good != 100 {
		t.Fatalf("window good/total = %v/%v, want 100/200", st.Good, st.Total)
	}
	// Fast window (1m) sees only the second interval: all bad -> burn
	// 1.0/0.1 = 10. Slow/full window: half bad -> burn 5.
	if st.BurnFast < 9.9 || st.BurnFast > 10.1 {
		t.Fatalf("burn fast = %v, want ~10", st.BurnFast)
	}
	if st.BurnSlow < 4.9 || st.BurnSlow > 5.1 {
		t.Fatalf("burn slow = %v, want ~5", st.BurnSlow)
	}
	if !st.Breached {
		t.Fatal("both windows burning > 1 must breach")
	}
	if st.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %v, want 0 (overspent budget floors at zero)", st.BudgetRemaining)
	}

	// Gauges published on Sample.
	snap := gauges.Snapshot()
	found := false
	for _, m := range snap {
		if m.Name == "slo.write-h.burn_fast" {
			found = true
			if m.Value < 9.9 {
				t.Fatalf("gauge burn_fast = %v", m.Value)
			}
		}
	}
	if !found {
		t.Fatalf("slo gauges missing from %d metrics", len(snap))
	}
}

// TestSLOQuietWindow: no traffic means no burn and full budget, not NaN.
func TestSLOQuietWindow(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("req.read.ns")
	s := NewSLO(reg, []Objective{{Name: "read", Hist: "req.read.ns", Threshold: time.Millisecond, Target: 0.99}}, 8)
	base := time.Unix(4000, 0)
	s.Sample(base)
	s.Sample(base.Add(time.Second))
	st := s.Status()[0]
	if st.ErrorRate != 0 || st.BurnFast != 0 || st.Breached {
		t.Fatalf("quiet window status = %+v", st)
	}
	if st.BudgetRemaining != 1 {
		t.Fatalf("quiet budget = %v, want 1", st.BudgetRemaining)
	}
}

func TestSLOHTTPAndRender(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("req.write.ns")
	s := NewSLO(reg, DefaultObjectives(), 8)
	base := time.Unix(5000, 0)
	s.Sample(base)
	h.Observe(1000)
	s.Sample(base.Add(time.Second))

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("code %d", rec.Code)
	}
	var d SLODump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(d.Objectives) != 4 {
		t.Fatalf("%d objectives in dump", len(d.Objectives))
	}
	text := RenderSLO(d)
	for _, want := range []string{"write-h", "write-m", "write-l", "read", "budget left"} {
		if !strings.Contains(text, want) {
			t.Fatalf("RenderSLO missing %q:\n%s", want, text)
		}
	}
}
