package core

import (
	"math/rand"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/metrics/events"
	"fidr/internal/trace/span"
)

// Satellite: an empty store has no reduction to report. Convention:
// ReductionRatio() is stored/client and returns 0 when no client bytes
// have arrived (not 1, which would read as "no reduction achieved" on a
// dashboard that never saw a write).
func TestReductionRatioEmptyStore(t *testing.T) {
	var st Stats
	if r := st.ReductionRatio(); r != 0 {
		t.Fatalf("empty-store ReductionRatio = %v, want 0", r)
	}
	st = Stats{ClientBytes: 1000, StoredBytes: 250}
	if r := st.ReductionRatio(); r != 0.25 {
		t.Fatalf("ReductionRatio = %v, want 0.25", r)
	}
}

// driveMixed writes n chunks where half the content repeats, flushing at
// the end so the attribution ledger settles.
func driveMixed(t *testing.T, s *Server, n int) {
	t.Helper()
	sh := blockcomp.NewShaper(0.5)
	for i := 0; i < n; i++ {
		if err := s.Write(uint64(i), sh.Make(uint64(i%(n/2)), 4096)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// The tentpole invariant: after a flush every client write byte is
// attributed to exactly one bucket.
func TestAttributionEquationBalances(t *testing.T) {
	for _, arch := range allArchs() {
		s := newServer(t, arch)
		driveMixed(t, s, 200)
		st := s.Stats()
		if st.LogicalWriteBytes != 200*4096 {
			t.Fatalf("%v: logical = %d, want %d", arch, st.LogicalWriteBytes, 200*4096)
		}
		attributed := st.DedupSavedBytes + st.CompressionSavedBytes + st.StoredBytes
		if attributed != st.LogicalWriteBytes {
			t.Fatalf("%v: attribution unbalanced: dedup %d + comp %d + stored %d = %d, want %d",
				arch, st.DedupSavedBytes, st.CompressionSavedBytes, st.StoredBytes,
				attributed, st.LogicalWriteBytes)
		}
		if st.DedupSavedBytes == 0 || st.CompressionSavedBytes == 0 {
			t.Fatalf("%v: expected both dedup and compression savings: %+v", arch, st)
		}

		r := s.CapacityReport(0.25)
		if r.UnattributedBytes != 0 {
			t.Fatalf("%v: unattributed after flush: %d", arch, r.UnattributedBytes)
		}
		if r.ReductionRatio <= 1 {
			t.Fatalf("%v: reduction ratio %v, want > 1 for a reducible stream", arch, r.ReductionRatio)
		}
		if r.FPLive == 0 || r.FPOccupancy <= 0 {
			t.Fatalf("%v: fingerprint occupancy not tracked: live=%d occ=%v", arch, r.FPLive, r.FPOccupancy)
		}
	}
}

// GC advice must mirror Compact exactly: running Compact at the advised
// threshold reclaims precisely the projected bytes from precisely the
// candidate containers.
func TestGCAdviceMatchesCompact(t *testing.T) {
	s := gcServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 128; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	s.Flush()
	for i := uint64(0); i < 128; i++ {
		if i%4 != 0 {
			s.Write(i, sh.Make(20000+i, 4096))
		}
	}
	s.Flush()

	const th = 0.25
	adv := s.CapacityReport(th).GC
	if !adv.Recommended || adv.CandidateContainers == 0 {
		t.Fatalf("no GC recommended despite heavy overwrites: %+v", adv)
	}
	deadBefore := s.Garbage().TotalDeadBytes
	res, err := s.Compact(th)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContainersCompacted != adv.CandidateContainers {
		t.Fatalf("advice promised %d containers, Compact took %d",
			adv.CandidateContainers, res.ContainersCompacted)
	}
	// ProjectedReclaimBytes counts dead bytes, which is exactly what the
	// garbage ledger drops by; BytesReclaimed counts whole retired
	// containers.
	if got := deadBefore - s.Garbage().TotalDeadBytes; got != adv.ProjectedReclaimBytes {
		t.Fatalf("advice projected %d dead bytes, ledger dropped %d",
			adv.ProjectedReclaimBytes, got)
	}
	if want := uint64(res.ContainersCompacted) * uint64(s.cfg.ContainerSize); res.BytesReclaimed != want {
		t.Fatalf("BytesReclaimed %d, want %d retired containers * %d",
			res.BytesReclaimed, res.ContainersCompacted, s.cfg.ContainerSize)
	}
	// With the garbage gone the same threshold must stop recommending.
	if again := s.CapacityReport(th).GC; again.Recommended && again.ProjectedReclaimBytes >= adv.ProjectedReclaimBytes {
		t.Fatalf("advice did not shrink after compaction: %+v", again)
	}
}

// The heatmap is a re-bucketing of the garbage ledger: its dead bytes
// must sum to the ledger total, cell by cell.
func TestHeatmapSumsToGarbageLedger(t *testing.T) {
	s := gcServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 128; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	s.Flush()
	for i := uint64(0); i < 64; i++ {
		s.Write(i, sh.Make(30000+i, 4096))
	}
	s.Flush()

	hm := s.ContainerHeatmap()
	if hm.Containers == 0 || len(hm.Buckets) == 0 {
		t.Fatalf("empty heatmap: %+v", hm)
	}
	if want := s.Garbage().TotalDeadBytes; hm.DeadBytes != want {
		t.Fatalf("heatmap dead %d != garbage ledger %d", hm.DeadBytes, want)
	}
	var cells, dead, live uint64
	var containers int
	for _, b := range hm.Buckets {
		if b.AgeBand < 0 || b.AgeBand >= heatAgeBands {
			t.Fatalf("bad age band: %+v", b)
		}
		if b.DeadFracLo < 0 || b.DeadFracHi > 1 || b.DeadFracLo >= b.DeadFracHi {
			t.Fatalf("bad dead-fraction range: %+v", b)
		}
		containers += b.Containers
		dead += b.DeadBytes
		live += b.LiveBytes
		cells++
	}
	if dead != hm.DeadBytes || live != hm.LiveBytes {
		t.Fatalf("buckets sum live=%d dead=%d, header live=%d dead=%d",
			live, dead, hm.LiveBytes, hm.DeadBytes)
	}
	if containers+hm.Retired != hm.Containers {
		t.Fatalf("buckets hold %d containers + %d retired, header says %d",
			containers, hm.Retired, hm.Containers)
	}

	// After compaction the victims move to Retired and out of the cells;
	// the remaining dead bytes still reconcile with the ledger.
	res, err := s.Compact(0.25)
	if err != nil {
		t.Fatal(err)
	}
	hm = s.ContainerHeatmap()
	if hm.Retired != res.ContainersCompacted {
		t.Fatalf("retired %d != compacted %d", hm.Retired, res.ContainersCompacted)
	}
	if want := s.Garbage().TotalDeadBytes; hm.DeadBytes != want {
		t.Fatalf("post-GC heatmap dead %d != ledger %d", hm.DeadBytes, want)
	}
}

// Satellite: the Compact accounting invariant, as a property over
// randomized overwrite workloads. Reclaimed bytes must equal the drop in
// the per-container dead-byte totals AND the drop in the
// capacity.garbage_bytes gauge.
func TestCompactAccountingInvariantProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := gcServer(t, FIDRFull)
		reg := s.EnableObservability(nil)
		sh := blockcomp.NewShaper(0.3 + rng.Float64()*0.5)
		lbas := 64 + rng.Intn(128)
		writes := lbas * (2 + rng.Intn(3))
		for i := 0; i < writes; i++ {
			lba := uint64(rng.Intn(lbas))
			if err := s.Write(lba, sh.Make(rng.Uint64()%5000, 4096)); err != nil {
				t.Fatalf("seed %d write %d: %v", seed, i, err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}

		deadBefore := s.Garbage().TotalDeadBytes
		gaugeBefore := uint64(reg.Gauge("capacity.garbage_bytes").Value())
		if gaugeBefore != deadBefore {
			t.Fatalf("seed %d: gauge %d != ledger %d before GC", seed, gaugeBefore, deadBefore)
		}
		th := rng.Float64() * 0.5
		res, err := s.Compact(th)
		if err != nil {
			t.Fatalf("seed %d compact: %v", seed, err)
		}
		deadAfter := s.Garbage().TotalDeadBytes
		// The dead bytes the ledger dropped are exactly the ones the
		// stats attribute to this pass; retired-capacity accounting is
		// whole containers.
		if st := s.Stats(); deadBefore-deadAfter != st.ReclaimedDeadBytes {
			t.Fatalf("seed %d: ledger dropped %d, stats reclaimed %d",
				seed, deadBefore-deadAfter, st.ReclaimedDeadBytes)
		}
		if want := uint64(res.ContainersCompacted) * uint64(s.cfg.ContainerSize); res.BytesReclaimed != want {
			t.Fatalf("seed %d: BytesReclaimed %d, want %d containers * %d",
				seed, res.BytesReclaimed, res.ContainersCompacted, s.cfg.ContainerSize)
		}
		gaugeAfter := uint64(reg.Gauge("capacity.garbage_bytes").Value())
		if gaugeAfter != deadAfter {
			t.Fatalf("seed %d: gauge %d != ledger %d after GC", seed, gaugeAfter, deadAfter)
		}
	}
}

// A compaction pass lands in the event journal with its result fields.
func TestGCRunEventEmitted(t *testing.T) {
	s := gcServer(t, FIDRFull)
	j := events.NewJournal(16)
	s.SetEventJournal(j, 3)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 128; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	s.Flush()
	for i := uint64(0); i < 96; i++ {
		s.Write(i, sh.Make(40000+i, 4096))
	}
	s.Flush()
	res, err := s.Compact(0.25)
	if err != nil {
		t.Fatal(err)
	}
	evs := j.Since(0)
	if len(evs) != 1 {
		t.Fatalf("journal has %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Type != events.TypeGCRun || ev.Group != 3 {
		t.Fatalf("unexpected event: %+v", ev)
	}
	if got := ev.Fields["bytes_reclaimed"]; got != int64(res.BytesReclaimed) {
		t.Fatalf("event bytes_reclaimed = %d, want %d", got, res.BytesReclaimed)
	}
	if got := ev.Fields["containers_compacted"]; got != int64(res.ContainersCompacted) {
		t.Fatalf("event containers_compacted = %d, want %d", got, res.ContainersCompacted)
	}
}

// With a collector attached, the gc_run event names the trace the
// pass's request tree is kept under, so the event resolves to its spans.
func TestGCRunEventTraceResolves(t *testing.T) {
	s := gcServer(t, FIDRFull)
	s.EnableObservability(nil)
	col := span.NewCollector(0, 0, 0)
	s.SetSpanCollector(col, 0)
	j := events.NewJournal(16)
	s.SetEventJournal(j, 0)
	sh := blockcomp.NewShaper(0.5)
	for i := uint64(0); i < 128; i++ {
		s.Write(i, sh.Make(i, 4096))
	}
	s.Flush()
	for i := uint64(0); i < 96; i++ {
		s.Write(i, sh.Make(40000+i, 4096))
	}
	s.Flush()
	if _, err := s.Compact(0.25); err != nil {
		t.Fatal(err)
	}
	evs := j.Since(0)
	if len(evs) != 1 || evs[0].Type != events.TypeGCRun {
		t.Fatalf("journal = %+v, want one gc_run", evs)
	}
	id, err := span.ParseTraceID(evs[0].Trace)
	if err != nil {
		t.Fatalf("gc_run trace %q: %v", evs[0].Trace, err)
	}
	spans := col.Trace(id)
	if len(spans) == 0 || spans[0].Name != "core.gc" {
		t.Fatalf("gc_run trace %s resolves to %d spans, want the core.gc tree", id, len(spans))
	}
}

// Cluster-style merges: reports sum field-wise with ratios re-derived,
// heatmaps merge cell-wise.
func TestMergeCapacityReportsAndHeatmaps(t *testing.T) {
	var ss [2]*Server
	for i := range ss {
		ss[i] = gcServer(t, FIDRFull)
		sh := blockcomp.NewShaper(0.5)
		base := uint64(i * 100000)
		for j := uint64(0); j < 96; j++ {
			ss[i].Write(j, sh.Make(base+j%48, 4096))
		}
		ss[i].Flush()
		for j := uint64(0); j < 32; j++ {
			ss[i].Write(j, sh.Make(base+60000+j, 4096))
		}
		ss[i].Flush()
	}
	r0, r1 := ss[0].CapacityReport(0.25), ss[1].CapacityReport(0.25)
	m := MergeCapacityReports(r0, r1)
	if m.LogicalWriteBytes != r0.LogicalWriteBytes+r1.LogicalWriteBytes {
		t.Fatalf("merged logical %d != %d + %d", m.LogicalWriteBytes, r0.LogicalWriteBytes, r1.LogicalWriteBytes)
	}
	if got := m.DedupSavedBytes + m.CompressionSavedBytes + m.StoredBytes + m.UnattributedBytes; got != m.LogicalWriteBytes {
		t.Fatalf("merged attribution unbalanced: %d != %d", got, m.LogicalWriteBytes)
	}
	if m.GarbageBytes != r0.GarbageBytes+r1.GarbageBytes {
		t.Fatalf("merged garbage %d", m.GarbageBytes)
	}
	if m.GC.Threshold != 0.25 || m.GC.Recommended != (r0.GC.Recommended || r1.GC.Recommended) {
		t.Fatalf("merged GC advice: %+v", m.GC)
	}
	wantRatio := float64(m.LogicalWriteBytes) / float64(m.StoredBytes+m.UnattributedBytes)
	if m.ReductionRatio != wantRatio {
		t.Fatalf("merged ratio %v, want %v", m.ReductionRatio, wantRatio)
	}

	h0, h1 := ss[0].ContainerHeatmap(), ss[1].ContainerHeatmap()
	hm := MergeHeatmaps(h0, h1)
	if hm.Containers != h0.Containers+h1.Containers {
		t.Fatalf("merged containers %d", hm.Containers)
	}
	if hm.DeadBytes != h0.DeadBytes+h1.DeadBytes {
		t.Fatalf("merged dead %d", hm.DeadBytes)
	}
	var dead uint64
	for _, b := range hm.Buckets {
		dead += b.DeadBytes
	}
	if dead != hm.DeadBytes {
		t.Fatalf("merged buckets dead %d != header %d", dead, hm.DeadBytes)
	}
}
