package tablecache

import (
	"errors"
	"math/rand"
	"testing"

	"fidr/internal/fingerprint"
	"fidr/internal/hashpbn"
	"fidr/internal/hostmodel"
	"fidr/internal/ssd"
)

func testCache(t testing.TB, mode Mode, lines int) (*Cache, *hostmodel.Ledger) {
	t.Helper()
	geom, err := hashpbn.GeometryFor(100000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.MustNew(ssd.Config{
		Name: "tssd", CapacityBytes: 1 << 31, PageSize: 4096,
		ReadBW: 3.5e9, WriteBW: 2.7e9,
	})
	ledger := hostmodel.NewLedger()
	c, err := New(Config{
		Geometry:    geom,
		CacheLines:  lines,
		Mode:        mode,
		UpdateWidth: 4,
		TableSSD:    dev,
		Ledger:      ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, ledger
}

func fp(i int) fingerprint.FP {
	return fingerprint.Of([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
}

func TestConfigValidation(t *testing.T) {
	geom, _ := hashpbn.GeometryFor(1000, 0.5)
	dev := ssd.MustNew(ssd.Config{Name: "t", CapacityBytes: 1 << 30, PageSize: 4096, ReadBW: 1e9, WriteBW: 1e9})
	l := hostmodel.NewLedger()
	bad := []Config{
		{CacheLines: 4, TableSSD: dev, Ledger: l},
		{Geometry: geom, CacheLines: 0, TableSSD: dev, Ledger: l},
		{Geometry: geom, CacheLines: 4, Ledger: l},
		{Geometry: geom, CacheLines: 4, TableSSD: dev},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Table larger than SSD must be rejected.
	big, _ := hashpbn.GeometryFor(1<<40, 0.5)
	if _, err := New(Config{Geometry: big, CacheLines: 4, TableSSD: dev, Ledger: l}); err == nil {
		t.Error("oversized table accepted")
	}
}

func TestInsertLookupBothModes(t *testing.T) {
	for _, mode := range []Mode{Software, HW} {
		c, _ := testCache(t, mode, 64)
		for i := 0; i < 500; i++ {
			if err := c.Insert(fp(i), uint64(i)); err != nil {
				t.Fatalf("%v insert %d: %v", mode, i, err)
			}
		}
		for i := 0; i < 500; i++ {
			pbn, found, err := c.Lookup(fp(i))
			if err != nil {
				t.Fatalf("%v lookup %d: %v", mode, i, err)
			}
			if !found || pbn != uint64(i) {
				t.Fatalf("%v: key %d -> %d,%v", mode, i, pbn, found)
			}
		}
		if _, found, _ := c.Lookup(fp(99999)); found {
			t.Fatalf("%v: found absent key", mode)
		}
	}
}

func TestEvictionAndWriteBack(t *testing.T) {
	// A cache with very few lines must evict and still find all data
	// (dirty write-back to the table SSD preserves inserts).
	for _, mode := range []Mode{Software, HW} {
		c, _ := testCache(t, mode, 4)
		const n = 300
		for i := 0; i < n; i++ {
			if err := c.Insert(fp(i), uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		st := c.Stats()
		if st.Evictions == 0 || st.Flushes == 0 {
			t.Fatalf("%v: no evictions/flushes with tiny cache: %+v", mode, st)
		}
		for i := 0; i < n; i++ {
			pbn, found, err := c.Lookup(fp(i))
			if err != nil {
				t.Fatal(err)
			}
			if !found || pbn != uint64(i+1) {
				t.Fatalf("%v: key %d lost after eviction (got %d,%v)", mode, i, pbn, found)
			}
		}
	}
}

func TestHitRateReflectsLocality(t *testing.T) {
	c, _ := testCache(t, Software, 256)
	// Warm a small working set, then hammer it: hits should dominate.
	for i := 0; i < 50; i++ {
		c.Insert(fp(i), uint64(i))
	}
	for rep := 0; rep < 20; rep++ {
		for i := 0; i < 50; i++ {
			c.Lookup(fp(i))
		}
	}
	if hr := c.Stats().HitRate(); hr < 0.9 {
		t.Fatalf("hot-set hit rate %.3f", hr)
	}
}

func TestCPUChargingDiffersByMode(t *testing.T) {
	run := func(mode Mode) hostmodel.Snapshot {
		c, ledger := testCache(t, mode, 8)
		for i := 0; i < 400; i++ {
			c.Insert(fp(i), uint64(i))
			c.Lookup(fp(i))
		}
		return ledger.Snapshot()
	}
	sw := run(Software)
	hw := run(HW)

	if sw.CPUNanos[hostmodel.CompTreeIndex] == 0 {
		t.Fatal("software mode charged no tree CPU")
	}
	if sw.CPUNanos[hostmodel.CompTableSSDIO] == 0 {
		t.Fatal("software mode charged no SSD stack CPU")
	}
	if hw.CPUNanos[hostmodel.CompTreeIndex] != 0 {
		t.Fatal("HW mode charged host tree CPU")
	}
	if hw.CPUNanos[hostmodel.CompTableSSDIO] != 0 {
		t.Fatal("HW mode charged host SSD stack CPU")
	}
	// Content scans stay on the host in both modes.
	if sw.CPUNanos[hostmodel.CompTableContent] == 0 || hw.CPUNanos[hostmodel.CompTableContent] == 0 {
		t.Fatal("content scan CPU missing")
	}
	// Overall: HW mode must slash host CPU.
	if hw.TotalCPUNanos()*2 > sw.TotalCPUNanos() {
		t.Fatalf("HW mode CPU %d not well below software %d", hw.TotalCPUNanos(), sw.TotalCPUNanos())
	}
}

func TestMemoryChargedBothModes(t *testing.T) {
	for _, mode := range []Mode{Software, HW} {
		c, ledger := testCache(t, mode, 8)
		for i := 0; i < 100; i++ {
			c.Insert(fp(i), uint64(i))
		}
		snap := ledger.Snapshot()
		if snap.MemBytes[hostmodel.PathTableCache] == 0 {
			t.Fatalf("%v: no table-cache memory traffic recorded", mode)
		}
	}
}

// TestModesDifferOnlyInCharges: Software and HW are one functional cache.
// The same insert/lookup/delete sequence gives the same answers, the same
// Stats and the same table-SSD traffic; only the host's bill differs —
// Software pays for the tree and the SSD stack, HW for neither.
func TestModesDifferOnlyInCharges(t *testing.T) {
	type answer struct {
		pbn   uint64
		found bool
	}
	run := func(mode Mode) ([]answer, Stats, ssd.Stats, hostmodel.Snapshot) {
		c, ledger := testCache(t, mode, 64)
		rng := rand.New(rand.NewSource(2))
		var got []answer
		for i := 0; i < 20000; i++ {
			k := rng.Intn(4000)
			// 40% dedup probes (look up, insert when absent), 50% plain
			// lookups, 10% deletes.
			if op := rng.Intn(10); op < 9 {
				pbn, found, err := c.Lookup(fp(k))
				if err != nil {
					t.Fatalf("%v lookup %d: %v", mode, k, err)
				}
				if !found && op < 4 {
					if err := c.Insert(fp(k), uint64(i)); err != nil {
						t.Fatalf("%v insert %d: %v", mode, k, err)
					}
				}
				got = append(got, answer{pbn, found})
			} else {
				removed, err := c.Delete(fp(k))
				if err != nil {
					t.Fatalf("%v delete %d: %v", mode, k, err)
				}
				got = append(got, answer{0, removed})
			}
		}
		dev := c.cfg.TableSSD.Stats()
		dev.BusyDuration = 0 // modeled time, not a count
		return got, c.Stats(), dev, ledger.Snapshot()
	}
	swGot, swStats, swDev, sw := run(Software)
	hwGot, hwStats, hwDev, hw := run(HW)

	if swStats != hwStats {
		t.Errorf("Stats differ: software %+v, hw %+v", swStats, hwStats)
	}
	if swStats.Evictions == 0 || swStats.Flushes == 0 || swStats.Hits == 0 {
		t.Fatalf("sequence did not exercise hits, evictions and write-backs: %+v", swStats)
	}
	if swDev != hwDev {
		t.Errorf("table-SSD traffic differs: software %+v, hw %+v", swDev, hwDev)
	}
	for i := range swGot {
		if swGot[i] != hwGot[i] {
			t.Fatalf("op %d: software answered %+v, hw %+v", i, swGot[i], hwGot[i])
		}
	}
	for _, comp := range []hostmodel.Component{hostmodel.CompTreeIndex, hostmodel.CompTableSSDIO} {
		if sw.CPUNanos[comp] == 0 {
			t.Errorf("software mode charged nothing to %v", comp)
		}
		if hw.CPUNanos[comp] != 0 {
			t.Errorf("HW mode charged %d ns to %v", hw.CPUNanos[comp], comp)
		}
	}
	// Everything else on the bill is the same work in both modes.
	for _, comp := range []hostmodel.Component{hostmodel.CompTableContent, hostmodel.CompTableReplace} {
		if sw.CPUNanos[comp] != hw.CPUNanos[comp] {
			t.Errorf("%v: software %d ns, hw %d ns", comp, sw.CPUNanos[comp], hw.CPUNanos[comp])
		}
	}
	if sw.MemBytes[hostmodel.PathTableCache] != hw.MemBytes[hostmodel.PathTableCache] {
		t.Errorf("table-cache memory traffic differs: %d vs %d",
			sw.MemBytes[hostmodel.PathTableCache], hw.MemBytes[hostmodel.PathTableCache])
	}
}

func TestFlushAllPersists(t *testing.T) {
	geom, _ := hashpbn.GeometryFor(10000, 0.5)
	dev := ssd.MustNew(ssd.Config{Name: "t", CapacityBytes: 1 << 30, PageSize: 4096, ReadBW: 1e9, WriteBW: 1e9})
	l := hostmodel.NewLedger()
	mk := func() *Cache {
		c, err := New(Config{Geometry: geom, CacheLines: 32, Mode: Software, TableSSD: dev, Ledger: l})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := mk()
	for i := 0; i < 100; i++ {
		c1.Insert(fp(i), uint64(i+7))
	}
	if err := c1.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same SSD must see everything.
	c2 := mk()
	for i := 0; i < 100; i++ {
		pbn, found, err := c2.Lookup(fp(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found || pbn != uint64(i+7) {
			t.Fatalf("key %d not persisted (got %d,%v)", i, pbn, found)
		}
	}
}

func TestCacheLinesClampedToTable(t *testing.T) {
	geom, _ := hashpbn.GeometryFor(200, 1.0) // tiny table: 2 buckets
	dev := ssd.MustNew(ssd.Config{Name: "t", CapacityBytes: 1 << 30, PageSize: 4096, ReadBW: 1e9, WriteBW: 1e9})
	c, err := New(Config{Geometry: geom, CacheLines: 1000, Mode: Software, TableSSD: dev,
		Ledger: hostmodel.NewLedger()})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.lines) > int(geom.NumBuckets) {
		t.Fatalf("cache lines %d exceed table buckets %d", len(c.lines), geom.NumBuckets)
	}
}

func TestModeString(t *testing.T) {
	if Software.String() != "software" || HW.String() != "hw-engine" {
		t.Error("mode strings wrong")
	}
}

// missEvictKeys fills a 4-line HW cache with dirty lines and returns
// fingerprints in distinct buckets: probing them in turn (probeDirty)
// misses every time, and every miss evicts a dirty line — each bucket has
// been written back at least once, so the table SSD grows no new pages.
func missEvictKeys(tb testing.TB, c *Cache) []fingerprint.FP {
	tb.Helper()
	keys := distinctBucketKeys(c, 16)
	for round := 0; round < 2; round++ {
		for i, k := range keys {
			// Re-inserting dirties the freshly fetched line.
			if err := c.Insert(k, uint64(i)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return keys
}

// probeDirty is the dedup flow's pair on one fingerprint: the counted
// Lookup, then the Insert that lands on the line Lookup made resident and
// dirties it.
func probeDirty(tb testing.TB, c *Cache, keys []fingerprint.FP, i int) {
	k := i % len(keys)
	if pbn, found, err := c.Lookup(keys[k]); err != nil || !found || pbn != uint64(k) {
		tb.Fatalf("key %d -> %d,%v,%v", k, pbn, found, err)
	}
	if err := c.Insert(keys[k], uint64(k)); err != nil {
		tb.Fatal(err)
	}
}

// TestLookupNoAllocs: the uniqueness probe allocates nothing in the
// steady state — not on a hit (index walk, LRU touch, bucket scan) and
// not on a miss that evicts a dirty line (index delete + insert, bucket
// write-back and bucket fetch on the table SSD, straight out of and into
// the cache line).
func TestLookupNoAllocs(t *testing.T) {
	c, _ := testCache(t, HW, 4)
	keys := missEvictKeys(t, c)
	i := 0
	before := c.Stats()
	if n := testing.AllocsPerRun(200, func() { probeDirty(t, c, keys, i); i++ }); n != 0 {
		t.Errorf("miss that evicts a dirty line: %v allocs/run, want 0", n)
	}
	after := c.Stats()
	if d := after.Lookups - before.Lookups; after.Misses-before.Misses != d ||
		after.Evictions-before.Evictions != d || after.Flushes-before.Flushes != d {
		t.Fatalf("probes were not all misses evicting a dirty line: %+v -> %+v", before, after)
	}
	hit := keys[(i-1)%len(keys)]
	if n := testing.AllocsPerRun(200, func() { c.Lookup(hit) }); n != 0 {
		t.Errorf("hit: %v allocs/run, want 0", n)
	}
}

// TestLRUOrder pins the replacement order the intrusive list must keep:
// least recently touched goes first, and a touch rescues a line.
func TestLRUOrder(t *testing.T) {
	c, _ := testCache(t, HW, 4)
	keys := missEvictKeys(t, c)[:6]
	for _, k := range keys[:4] {
		c.Lookup(k)
	}
	c.Lookup(keys[0]) // order, oldest first: 1 2 3 0
	c.Lookup(keys[4]) // evicts 1
	c.Lookup(keys[5]) // evicts 2
	before := c.Stats().Misses
	for _, k := range []fingerprint.FP{keys[0], keys[3], keys[4], keys[5]} {
		c.Lookup(k)
	}
	if got := c.Stats().Misses - before; got != 0 {
		t.Fatalf("%d of the four most recently used lines were evicted", got)
	}
	c.Lookup(keys[1])
	c.Lookup(keys[2])
	if got := c.Stats().Misses - before; got != 2 {
		t.Fatalf("the two least recently used buckets should have been evicted, %d misses", got)
	}
}

// distinctBucketKeys returns n fingerprints in n distinct buckets.
func distinctBucketKeys(c *Cache, n int) []fingerprint.FP {
	seen := map[uint64]bool{}
	var keys []fingerprint.FP
	for i := 0; len(keys) < n; i++ {
		if b := c.geom.BucketOf(fp(i)); !seen[b] {
			seen[b] = true
			keys = append(keys, fp(i))
		}
	}
	return keys
}

// TestFailedFetchKeepsLine: a bucket read that fails hands its line back,
// so a transient table-SSD fault does not shrink the cache — every line
// stays indexed or free, and as many buckets fit without eviction as
// before the fault.
func TestFailedFetchKeepsLine(t *testing.T) {
	c, _ := testCache(t, HW, 4)
	keys := distinctBucketKeys(c, 5)
	c.cfg.TableSSD.InjectFaults(1, 0, errors.New("media error"))
	if _, _, err := c.Lookup(keys[4]); err == nil {
		t.Fatal("lookup over a failed bucket read succeeded")
	}
	for _, k := range keys[:4] {
		if _, _, err := c.Lookup(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.idx) + len(c.freeList); got != len(c.lines) {
		t.Fatalf("%d indexed + %d free != %d lines", len(c.idx), len(c.freeList), len(c.lines))
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("four buckets in four lines evicted %d", ev)
	}
}

// TestFailedWriteBackKeepsVictim: when a dirty victim's write-back fails,
// the victim stays cached, dirty and indexed — its new entries are not
// lost and the line is not leaked — and the next miss writes it back.
func TestFailedWriteBackKeepsVictim(t *testing.T) {
	c, _ := testCache(t, HW, 1)
	keys := distinctBucketKeys(c, 2)
	if err := c.Insert(keys[0], 7); err != nil {
		t.Fatal(err)
	}
	c.cfg.TableSSD.InjectFaults(0, 1, errors.New("media error"))
	if _, _, err := c.Lookup(keys[1]); err == nil {
		t.Fatal("lookup over a failed write-back succeeded")
	}
	pbn, found, err := c.Lookup(keys[0])
	if err != nil || !found || pbn != 7 {
		t.Fatalf("after the failed write-back: pbn %d found %v err %v", pbn, found, err)
	}
	if _, _, err := c.Lookup(keys[1]); err != nil {
		t.Fatal(err)
	}
	if pbn, found, err := c.Lookup(keys[0]); err != nil || !found || pbn != 7 {
		t.Fatalf("after the retried write-back: pbn %d found %v err %v", pbn, found, err)
	}
}

// BenchmarkTableCacheLookup is the probe layer's local number (make
// bench-go): a resident bucket, and a miss that writes back a dirty
// victim and fetches the bucket from the table SSD (the loop includes the
// Insert hit that re-dirties the line, as the dedup flow does).
func BenchmarkTableCacheLookup(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c, _ := testCache(b, HW, 1024)
		for i := 0; i < 500; i++ { // ~500 buckets: all resident
			c.Insert(fp(i), uint64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Lookup(fp(i % 500))
		}
	})
	b.Run("miss-evict", func(b *testing.B) {
		c, _ := testCache(b, HW, 4)
		keys := missEvictKeys(b, c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probeDirty(b, c, keys, i)
		}
	})
}
