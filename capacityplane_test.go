package fidr_test

import (
	"testing"

	"fidr"
)

// smallContainers shrinks containers so GC scenarios fit in a few
// hundred writes per group.
func smallContainers(arch fidr.Arch) fidr.Config {
	cfg := fidr.DefaultConfig(arch)
	cfg.ContainerSize = 64 << 10
	cfg.BatchChunks = 16
	return cfg
}

// driveClusterOverwrites fills a cluster with half-duplicate content and
// then overwrites most LBAs so every group accumulates garbage.
func driveClusterOverwrites(t *testing.T, c *fidr.Cluster, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		if err := c.Write(i, fidr.MakeChunk(i%(n/2), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if i%4 != 0 {
			if err := c.Write(i, fidr.MakeChunk(100000+i, 0.5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// fronted puts c behind the async front end and returns the store
// fidrd serves: the owner of every merged maintenance view.
func fronted(t *testing.T, c *fidr.Cluster) *fidr.AsyncStore {
	t.Helper()
	a, err := fidr.NewAsync(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return blocking(t, a)
}

// Satellite: the merged cluster view must carry capacity.* counters that
// sum the groups, with the ratio gauges re-derived from the sums (never
// summed themselves — a summed ratio would be meaningless).
func TestClusterCapacityMergedCounters(t *testing.T) {
	const groups = 3
	c, err := fidr.NewCluster(smallContainers(fidr.FIDRFull), groups)
	if err != nil {
		t.Fatal(err)
	}
	view := c.EnableObservability()
	driveClusterOverwrites(t, c, 384)

	ms := view.Snapshot()
	logical := snapshotValue(ms, "capacity.logical_bytes")
	dedup := snapshotValue(ms, "capacity.dedup_saved_bytes")
	comp := snapshotValue(ms, "capacity.compression_saved_bytes")
	stored := snapshotValue(ms, "capacity.stored_bytes")
	if logical == 0 {
		t.Fatal("merged capacity.logical_bytes missing")
	}
	if dedup+comp+stored != logical {
		t.Fatalf("merged attribution unbalanced: %v + %v + %v != %v", dedup, comp, stored, logical)
	}
	// The merged counters are the group sums.
	var wantLogical float64
	for i := 0; i < groups; i++ {
		wantLogical += float64(c.Group(i).Stats().LogicalWriteBytes)
	}
	if logical != wantLogical {
		t.Fatalf("merged logical %v != group sum %v", logical, wantLogical)
	}
	// Derived ratios come from the merged counters.
	if got, want := snapshotValue(ms, "capacity.reduction_ratio"), logical/stored; got != want {
		t.Fatalf("capacity.reduction_ratio = %v, want %v", got, want)
	}
	if got, want := snapshotValue(ms, "capacity.dedup_saved_ratio"), dedup/logical; got != want {
		t.Fatalf("capacity.dedup_saved_ratio = %v, want %v", got, want)
	}
	if g := snapshotValue(ms, "capacity.garbage_bytes"); g == 0 {
		t.Fatal("merged capacity.garbage_bytes is 0 after overwrites")
	}
	// The merged report the async front serves carries the same sums.
	rep, err := fronted(t, c).CapacityReport(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rep.LogicalWriteBytes) != logical || float64(rep.GarbageBytes) != snapshotValue(ms, "capacity.garbage_bytes") {
		t.Fatalf("merged report logical %d garbage %d != merged gauges", rep.LogicalWriteBytes, rep.GarbageBytes)
	}

	// Cluster.Stats carries the same ledger sums.
	st := c.Stats()
	if float64(st.LogicalWriteBytes) != logical {
		t.Fatalf("Cluster.Stats logical %d != merged gauge %v", st.LogicalWriteBytes, logical)
	}
	if st.DedupSavedBytes+st.CompressionSavedBytes+st.StoredBytes != st.LogicalWriteBytes {
		t.Fatalf("Cluster.Stats attribution unbalanced: %+v", st)
	}
}

// Satellite: one journal shared across groups interleaves events in a
// single monotonic sequence with per-group origin labels, and the merged
// capacity report reconciles with the merged heatmap.
func TestClusterJournalInterleavingAndMergedViews(t *testing.T) {
	const groups = 3
	c, err := fidr.NewCluster(smallContainers(fidr.FIDRFull), groups)
	if err != nil {
		t.Fatal(err)
	}
	j := fidr.NewEventJournal(64)
	for i := 0; i < groups; i++ {
		c.Group(i).SetEventJournal(j, i)
	}
	driveClusterOverwrites(t, c, 384)
	store := fronted(t, c)

	rep, err := store.CapacityReport(0.25)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := store.ContainerHeatmap()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GarbageBytes == 0 || !rep.GC.Recommended {
		t.Fatalf("no garbage across %d groups: %+v", groups, rep.GC)
	}
	if hm.DeadBytes != rep.GarbageBytes {
		t.Fatalf("merged heatmap dead %d != merged report garbage %d", hm.DeadBytes, rep.GarbageBytes)
	}

	res, err := store.CompactAll(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContainersCompacted == 0 {
		t.Fatal("cluster compaction found nothing")
	}
	evs := j.Since(0)
	if len(evs) != groups {
		t.Fatalf("journal has %d events, want one gc_run per group", len(evs))
	}
	seen := map[int]bool{}
	var lastSeq uint64
	var reclaimed int64
	for _, ev := range evs {
		if ev.Type != "gc_run" {
			t.Fatalf("unexpected event type %q", ev.Type)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("sequence not monotonic: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Group < 0 || ev.Group >= groups || seen[ev.Group] {
			t.Fatalf("bad or repeated group label: %+v", ev)
		}
		seen[ev.Group] = true
		reclaimed += ev.Fields["bytes_reclaimed"]
	}
	if reclaimed != int64(res.BytesReclaimed) {
		t.Fatalf("events reclaimed %d != compact result %d", reclaimed, res.BytesReclaimed)
	}

	// Post-GC the merged views still reconcile; retirement reached the
	// heatmap header.
	if hm, err = store.ContainerHeatmap(); err != nil {
		t.Fatal(err)
	}
	if uint64(hm.Retired) != res.ContainersCompacted {
		t.Fatalf("merged heatmap retired %d != compacted %d", hm.Retired, res.ContainersCompacted)
	}
	if rep, err = store.CapacityReport(0.25); err != nil {
		t.Fatal(err)
	}
	if hm.DeadBytes != rep.GarbageBytes {
		t.Fatalf("post-GC heatmap dead %d != report garbage %d", hm.DeadBytes, rep.GarbageBytes)
	}
}

// The async front-end runs the capacity surfaces as the owner of each
// store, so reports, heatmaps and GC work against a cluster behind it.
func TestAsyncStoreCapacitySurfaces(t *testing.T) {
	const groups = 2
	cl, err := fidr.NewCluster(smallContainers(fidr.FIDRFull), groups)
	if err != nil {
		t.Fatal(err)
	}
	j := fidr.NewEventJournal(64)
	for i := 0; i < groups; i++ {
		cl.Group(i).SetEventJournal(j, i)
	}
	async, err := fidr.NewAsync(cl, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer async.Close()
	store := blocking(t, async)

	const n = 256
	for i := uint64(0); i < n; i++ {
		if err := store.Write(i, fidr.MakeChunk(i%(n/2), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if i%4 != 0 {
			if err := store.Write(i, fidr.MakeChunk(200000+i, 0.5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := async.Maintenance(func(s fidr.Store) error { return s.Flush() }); err != nil {
		t.Fatal(err)
	}

	rep, err := store.CapacityReport(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnattributedBytes != 0 {
		t.Fatalf("unattributed bytes after flush: %d", rep.UnattributedBytes)
	}
	if rep.DedupSavedBytes+rep.CompressionSavedBytes+rep.StoredBytes != rep.LogicalWriteBytes {
		t.Fatalf("attribution unbalanced through async front: %+v", rep)
	}
	hm, err := store.ContainerHeatmap()
	if err != nil {
		t.Fatal(err)
	}
	if hm.DeadBytes != rep.GarbageBytes {
		t.Fatalf("async heatmap dead %d != report garbage %d", hm.DeadBytes, rep.GarbageBytes)
	}

	sum, err := store.CompactAll(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ContainersCompacted == 0 || sum.BytesReclaimed == 0 {
		t.Fatalf("async GC reclaimed nothing: %+v", sum)
	}
	after, err := store.CapacityReport(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if after.GarbageBytes >= rep.GarbageBytes {
		t.Fatalf("garbage did not shrink: %d -> %d", rep.GarbageBytes, after.GarbageBytes)
	}
	if after.ReclaimedDeadBytes == 0 {
		t.Fatal("reclaimed ledger not updated through async front")
	}
	if evs := j.Since(0); len(evs) != groups {
		t.Fatalf("journal has %d gc_run events, want %d", len(evs), groups)
	}

	// Every LBA still reads its freshest content through the front-end.
	for i := uint64(0); i < n; i++ {
		want := fidr.MakeChunk(i%(n/2), 0.5)
		if i%4 != 0 {
			want = fidr.MakeChunk(200000+i, 0.5)
		}
		got, err := store.Read(i)
		if err != nil {
			t.Fatalf("read %d after async GC: %v", i, err)
		}
		if string(got) != string(want) {
			t.Fatalf("LBA %d corrupted by async GC", i)
		}
	}
}
