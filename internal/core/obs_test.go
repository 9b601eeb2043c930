package core

import (
	"strings"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/metrics"
	"fidr/internal/trace/span"
)

// driveWorkload writes 200 chunks (half duplicates), flushes and reads
// every chunk back.
func driveWorkload(t *testing.T, s *Server) {
	t.Helper()
	sh := blockcomp.NewShaper(0.5)
	const n = 200
	for i := 0; i < n; i++ {
		// Seed collisions make half the stream duplicate content.
		data := sh.Make(uint64(i%(n/2)), 4096)
		if err := s.Write(uint64(i), data); err != nil {
			t.Fatalf("%v write %d: %v", s.cfg.Arch, i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Read(uint64(i)); err != nil {
			t.Fatalf("%v read %d: %v", s.cfg.Arch, i, err)
		}
	}
}

// driveObserved runs driveWorkload through an instrumented server,
// returning the registry.
func driveObserved(t *testing.T, arch Arch) *metrics.Registry {
	t.Helper()
	s := newServer(t, arch)
	reg := s.EnableObservability(nil)
	driveWorkload(t, s)
	return reg
}

func TestObservabilityCountersAndStages(t *testing.T) {
	for _, arch := range allArchs() {
		reg := driveObserved(t, arch)

		if got := reg.Counter("core.writes").Value(); got != 200 {
			t.Errorf("%v core.writes = %d, want 200", arch, got)
		}
		if got := reg.Counter("core.reads").Value(); got != 200 {
			t.Errorf("%v core.reads = %d, want 200", arch, got)
		}
		if got := reg.Counter("core.dup_chunks").Value(); got == 0 {
			t.Errorf("%v core.dup_chunks = 0, want > 0", arch)
		}
		if got := reg.Counter("core.unique_chunks").Value(); got == 0 {
			t.Errorf("%v core.unique_chunks = 0, want > 0", arch)
		}
		// Dedup accounting must agree between counters: every chunk is
		// either unique or duplicate.
		total := reg.Counter("core.dup_chunks").Value() + reg.Counter("core.unique_chunks").Value()
		if total != 200 {
			t.Errorf("%v unique+dup = %d, want 200", arch, total)
		}

		// Every write-path stage histogram must have samples.
		for _, st := range []Stage{StageNICBuffer, StageHash, StageDedupLookup, StageCompress, StageSSDIO} {
			h := reg.Histogram("stage." + st.String() + ".ns")
			if h.Count() == 0 {
				t.Errorf("%v stage %s has no samples", arch, st)
			}
			if h.Mean() < 0 || h.Quantile(0.99) < h.Quantile(0.50) {
				t.Errorf("%v stage %s: inconsistent snapshot", arch, st)
			}
		}
		// The substrate probe histogram rides on the same registry.
		if reg.Histogram("stage.table_cache.ns").Count() == 0 {
			t.Errorf("%v table-cache probe histogram empty", arch)
		}
		if reg.Counter("tablecache.lookups").Value() == 0 {
			t.Errorf("%v tablecache.lookups = 0", arch)
		}
	}
}

// TestNoConstantHistogram: a histogram is for values that vary. One that
// saw a hundred observations and a single value is a model's constant
// published as if it had been observed (the §7.6 budget lives in
// latency.go and is printed by experiments.Latency, not per request).
//
// ssd.<name>.access_ns is exempt by name: it is the device model's
// AccessTime per command, a function of size and direction and no clock,
// and the table SSD sees only one-page reads here. It moves under
// model.* with the SSD's other ledgers (ROADMAP item 4).
func TestNoConstantHistogram(t *testing.T) {
	for _, arch := range allArchs() {
		for _, m := range driveObserved(t, arch).Snapshot() {
			if strings.HasPrefix(m.Name, "ssd.") && strings.HasSuffix(m.Name, ".access_ns") {
				continue
			}
			if m.Kind == "hist" && m.Hist.Count >= 100 && !(m.Hist.Min < m.Hist.Max) {
				t.Errorf("%v %s: %d observations, all %v", arch, m.Name, m.Hist.Count, m.Hist.Min)
			}
		}
	}
}

// TestObservabilityTraceRing: every observed request reaches the
// collector's recent view as one span tree under a locally minted ID —
// root "core.<op>", one child per stage — bounded and newest first.
func TestObservabilityTraceRing(t *testing.T) {
	s := newServer(t, FIDRFull)
	s.EnableObservability(nil)
	col := span.NewCollector(8, 0, 0)
	s.SetSpanCollector(col, 3)
	sh := blockcomp.NewShaper(0.5)
	for i := 0; i < 100; i++ {
		if err := s.Write(uint64(i), sh.Make(uint64(i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	reqs := col.Recent()
	if len(reqs) != 8 {
		t.Fatalf("recent view holds %d requests, want 8", len(reqs))
	}
	// Newest first: the flush trace is the most recent op.
	if reqs[0].Op() != "flush" || reqs[0].Root.Name != "core.flush" {
		t.Errorf("newest request = %q (%q), want flush", reqs[0].Op(), reqs[0].Root.Name)
	}
	ids := make(map[span.TraceID]bool)
	for _, q := range reqs {
		root := q.Root
		if root.Dur < 0 || root.Trace == 0 || root.ID == 0 || root.Group != 3 {
			t.Errorf("%s root span malformed: %+v", q.Op(), root)
		}
		if q.Sampled || root.Parent != 0 {
			t.Errorf("%s: untraced request is sampled=%v parent=%s", q.Op(), q.Sampled, root.Parent)
		}
		ids[root.Trace] = true
		if len(q.Stages) == 0 {
			t.Errorf("%s has no stage spans", q.Op())
		}
		for _, sp := range q.Stages {
			if sp.Trace != root.Trace || sp.Parent != root.ID || sp.ID == 0 || sp.Group != 3 {
				t.Errorf("%s stage %s not a child of its root: %+v", q.Op(), sp.Name, sp)
			}
		}
	}
	if len(ids) != len(reqs) {
		t.Errorf("%d distinct minted IDs across %d unsampled requests", len(ids), len(reqs))
	}
	out := col.RenderRecent()
	if !strings.Contains(out, "flush") || !strings.Contains(out, "recent request traces") {
		t.Errorf("rendered traces missing content:\n%s", out)
	}
}

func TestObservabilityDisabledIsNilSafe(t *testing.T) {
	// No EnableObservability: every timing hook is a nil test, not a
	// panic, and the server never comes to own a registry.
	for _, arch := range allArchs() {
		s := newServer(t, arch)
		if s.MetricsRegistry() != nil {
			t.Fatalf("%v: registry present on a new server", arch)
		}
		driveWorkload(t, s)
		if s.MetricsRegistry() != nil {
			t.Errorf("%v: registry present without EnableObservability", arch)
		}
	}
}

func TestObservabilityDumpFormat(t *testing.T) {
	reg := driveObserved(t, FIDRFull)
	dump := reg.Dump()
	for _, want := range []string{
		"counter core.writes 200",
		"counter nic.hash_ops",
		"counter engine.chunks_in",
		"hist stage.hash.ns count=",
		"hist ssd.data-ssd.access_ns",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q\n%s", want, dump)
		}
	}
}
