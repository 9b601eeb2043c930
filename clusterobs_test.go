package fidr_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fidr"
	"fidr/internal/hostmodel"
	"fidr/internal/metrics"
	"fidr/internal/trace/span"
)

// TestGroupForUniformity bounds the sharding function's skew with a
// chi-squared statistic over sequential LBA ranges — the common client
// pattern, and the one a weak mixer would shard worst.
func TestGroupForUniformity(t *testing.T) {
	const groups = 4
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), groups)
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []uint64{0, 1 << 20, 1 << 40} {
		const n = 4000
		var counts [groups]int
		for i := uint64(0); i < n; i++ {
			g := c.GroupFor(start + i)
			if g < 0 || g >= groups {
				t.Fatalf("GroupFor(%d) = %d out of range", start+i, g)
			}
			counts[g]++
		}
		exp := float64(n) / groups
		var chi2 float64
		for _, got := range counts {
			d := float64(got) - exp
			chi2 += d * d / exp
		}
		// df = 3; P(chi2 > 16.3) < 0.001 for a uniform sharder. A
		// generous 30 keeps the test deterministic-in-practice while
		// still catching any structural bias (a modulo sharder on a
		// sequential range scores thousands).
		if chi2 > 30 {
			t.Errorf("start %d: chi2 = %.1f (counts %v); sharding skewed", start, chi2, counts)
		}
	}
}

// TestClusterStatsAggregation checks Cluster.Stats against a
// field-by-field sum over the groups.
func TestClusterStatsAggregation(t *testing.T) {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 600; i++ {
		if err := c.Write(i, fidr.MakeChunk(i%50, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if _, err := c.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	var want fidr.Stats
	for i := 0; i < c.Groups(); i++ {
		sumFields(reflect.ValueOf(&want).Elem(), reflect.ValueOf(c.Group(i).Stats()))
	}
	got := c.Stats()
	if got != want {
		t.Fatalf("Stats() = %+v, want per-group sum %+v", got, want)
	}
	if got.ClientWrites != 600 || got.ClientReads != 100 {
		t.Fatalf("writes/reads = %d/%d", got.ClientWrites, got.ClientReads)
	}

	snap := c.Snapshot()
	var wantClient uint64
	for i := 0; i < c.Groups(); i++ {
		wantClient += c.Group(i).Ledger().Snapshot().ClientBytes
	}
	if snap.ClientBytes != wantClient {
		t.Fatalf("Snapshot().ClientBytes = %d, want %d", snap.ClientBytes, wantClient)
	}
}

// TestClusterSnapshotKeepsPayload: a Baseline cluster's merged ledger
// is the field-by-field sum of its groups' — host-DRAM payload included,
// the term that separates the baseline from FIDR.
func TestClusterSnapshotKeepsPayload(t *testing.T) {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.Baseline), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		if err := c.Write(i, fidr.MakeChunk(i%50, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var want hostmodel.Snapshot
	for i := 0; i < c.Groups(); i++ {
		sumFields(reflect.ValueOf(&want).Elem(), reflect.ValueOf(c.Group(i).Ledger().Snapshot()))
	}
	if want.PayloadBytes == 0 {
		t.Fatal("baseline groups charged no host-DRAM payload")
	}
	if got := c.Snapshot(); got != want {
		t.Fatalf("Snapshot() = %+v, want the groups' sum %+v", got, want)
	}
}

// sumFields adds every unsigned field of src into dst, arrays element
// by element: by reflection, so a field added to the struct is summed
// without anyone listing it.
func sumFields(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			sumFields(dst.Field(i), src.Field(i))
		}
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			sumFields(dst.Index(i), src.Index(i))
		}
	case reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())
	default:
		panic("sumFields: unsummable kind " + src.Kind().String())
	}
}

// driveObservedCluster writes 400 chunks (10 distinct contents, so most
// content lands in several shards) through an instrumented cluster and
// reads 50 back — directly, or through the async front-end's per-group
// owner locks, which is how fidrd -groups N drives a cluster.
func driveObservedCluster(t *testing.T, groups int, viaAsync bool) (*fidr.Cluster, metrics.Gatherer) {
	t.Helper()
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), groups)
	if err != nil {
		t.Fatal(err)
	}
	view := c.EnableObservability()
	var store interface {
		Write(lba uint64, data []byte) error
		Read(lba uint64) ([]byte, error)
	} = c
	flush := c.Flush
	if viaAsync {
		a, err := fidr.NewAsync(c, 16)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		store = blocking(t, a)
		flush = func() error { return a.Maintenance(fidr.Store.Flush) }
	}
	for i := uint64(0); i < 400; i++ {
		if err := store.Write(i, fidr.MakeChunk(i%10, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if _, err := store.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	return c, view
}

func TestClusterGathererMergedAndPrefixed(t *testing.T) {
	_, view := driveObservedCluster(t, 4, false)
	dump := metrics.DumpMetrics(view.Snapshot())

	// Merged series: the unprefixed core.writes must equal the total.
	if !strings.Contains(dump, "counter core.writes 400") {
		t.Errorf("merged core.writes missing or wrong:\n%s", dump)
	}
	// Per-group series appear under every group prefix.
	for _, p := range []string{"group0.", "group1.", "group2.", "group3."} {
		if !strings.Contains(dump, "counter "+p+"core.writes ") {
			t.Errorf("%score.writes missing", p)
		}
		if !strings.Contains(dump, "gauge "+p+"derived.write_share ") {
			t.Errorf("%sderived.write_share missing", p)
		}
		if !strings.Contains(dump, "gauge "+p+"derived.dedup_ratio ") {
			t.Errorf("%sderived.dedup_ratio missing", p)
		}
	}
	// Cluster-level series.
	for _, name := range []string{
		"gauge cluster.groups 4",
		"gauge cluster.shard_imbalance ",
		"hist req.write.ns count=400 ",
		"hist req.read.ns count=50 ",
	} {
		if !strings.Contains(dump, name) {
			t.Errorf("%q missing from dump", name)
		}
	}
	// The dump is deterministic: a second snapshot of the quiescent
	// cluster renders identically.
	if again := metrics.DumpMetrics(view.Snapshot()); again != dump {
		t.Error("dump not deterministic across snapshots")
	}
}

// TestClusterDerivedGauges checks the cluster-level series both ways a
// request reaches a group: Cluster.Write, and an async caller serving
// its request as the group's owner.
func TestClusterDerivedGauges(t *testing.T) {
	t.Run("direct", func(t *testing.T) { testClusterDerivedGauges(t, false) })
	t.Run("async", func(t *testing.T) { testClusterDerivedGauges(t, true) })
}

func testClusterDerivedGauges(t *testing.T, viaAsync bool) {
	_, view := driveObservedCluster(t, 4, viaAsync)

	var shareSum, imbalance float64
	haveImbalance := false
	for _, m := range view.Snapshot() {
		switch {
		case m.Name == "req.write.ns" && m.Hist.Count != 400:
			t.Errorf("req.write.ns observed %d requests, want 400", m.Hist.Count)
		case m.Name == "req.read.ns" && m.Hist.Count != 50:
			t.Errorf("req.read.ns observed %d requests, want 50", m.Hist.Count)
		case strings.HasSuffix(m.Name, "derived.write_share"):
			shareSum += m.Value
		case m.Name == "cluster.shard_imbalance":
			imbalance, haveImbalance = m.Value, true
		}
	}
	if shareSum < 0.999 || shareSum > 1.001 {
		t.Errorf("write shares sum to %.4f, want 1", shareSum)
	}
	if !haveImbalance || imbalance < 0 || imbalance > 1 {
		t.Errorf("shard imbalance = %v (present %v)", imbalance, haveImbalance)
	}
}

// TestClusterPromExposition is the acceptance path: a cluster's
// gatherer served over HTTP with ?format=prom yields valid Prometheus
// text exposition carrying per-group and merged series.
func TestClusterPromExposition(t *testing.T) {
	c, view := driveObservedCluster(t, 4, false)
	col := span.NewCollector(0, 0, 0)
	for i := 0; i < c.Groups(); i++ {
		c.Group(i).SetSpanCollector(col, i)
	}
	if err := c.Write(1, fidr.MakeChunk(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(metrics.Handler(view, nil,
		[]metrics.Route{{Path: "/traces", Handler: metrics.Text(col.RenderRecent)}}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prom := string(body)
	for _, want := range []string{
		"# TYPE core_writes counter",
		"core_writes 401",
		"group0_core_writes ",
		"group3_core_writes ",
		"cluster_groups 4",
		"group0_derived_write_share ",
		"req_write_ns_bucket{le=\"+Inf\"}",
		"req_write_ns_sum ",
		"req_write_ns_count ",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// The trace endpoint serves the cluster's shared collector.
	tresp, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	tbody, _ := io.ReadAll(tresp.Body)
	if !strings.Contains(string(tbody), "write") {
		t.Error("trace endpoint returned no write traces")
	}
}

// TestClusterRecentTracesMergedNewestFirst: a 2-group cluster sharing
// one collector serves the recent view cluster-wide — requests of both
// groups interleaved in completion order, each labelled with its group —
// with nothing merged or sorted per group at read time.
func TestClusterRecentTracesMergedNewestFirst(t *testing.T) {
	c, err := fidr.NewCluster(fidr.DefaultConfig(fidr.FIDRFull), 2)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableObservability()
	col := span.NewCollector(1024, 0, 0)
	for i := 0; i < c.Groups(); i++ {
		c.Group(i).SetSpanCollector(col, i)
	}
	for i := uint64(0); i < 400; i++ {
		if err := c.Write(i, fidr.MakeChunk(i%10, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	reqs := col.Recent()
	// 400 writes, 3 full batches per group (64 chunks each), and per
	// group one flush-time batch plus the flush itself.
	if len(reqs) != 400+6+4 {
		t.Fatalf("recent view holds %d requests, want 410", len(reqs))
	}
	end := func(q *span.Request) time.Time { return q.Root.Start.Add(q.Root.Dur) }
	perGroup := make([]int, 2)
	switches := 0
	for i, q := range reqs {
		if i > 0 && end(q).After(end(reqs[i-1])) {
			t.Fatalf("recent view not newest-first at %d", i)
		}
		if i > 0 && q.Root.Group != reqs[i-1].Root.Group {
			switches++
		}
		if q.Op() == "write" && q.Root.Group != c.GroupFor(q.Root.LBA) {
			t.Fatalf("write lba %d labelled group %d, sharded to %d", q.Root.LBA, q.Root.Group, c.GroupFor(q.Root.LBA))
		}
		perGroup[q.Root.Group]++
	}
	if perGroup[0] == 0 || perGroup[1] == 0 {
		t.Fatalf("requests per group = %v; one group missing from the shared view", perGroup)
	}
	// A per-group merge would show two runs; the shared ring interleaves.
	if switches < 50 {
		t.Fatalf("only %d group switches across %d requests; view is not globally ordered", switches, len(reqs))
	}
	out := col.RenderRecent()
	if !strings.Contains(out, "group") || !strings.Contains(out, "410 traces") {
		t.Fatalf("rendered view missing group column or count:\n%.400s", out)
	}
}
