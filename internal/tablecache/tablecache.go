// Package tablecache manages the in-DRAM cache of Hash-PBN table buckets.
//
// At PB scale the Hash-PBN table is multi-TB and lives on dedicated table
// SSDs; only a slice of buckets (4-KB cache lines) is kept in host memory
// (§2.3). The paper's Observation #4 splits the cache-management work into
// four components (Table 2) and assigns each a "best place to run":
//
//	tree indexing            -> accelerator (small structure, CPU-heavy)
//	table SSD access         -> accelerator (queue management)
//	cache content access     -> host (10-100s of GB of content)
//	replacement (LRU/free)   -> host or accelerator
//
// Both modes run the same functional cache — lines, an intrusive LRU and
// one bucket -> line map — and differ only in who is charged:
//
//   - Software (baseline): tree indexing, SSD queues and replacement all
//     run on the host CPU, counted per operation in the host ledger.
//   - HW (FIDR Cache HW-Engine): tree indexing and table-SSD queue
//     management run in the engine (§6.1, zero host CPU); the host keeps
//     the LRU list and scans cached content, exactly the hybrid split of
//     §5.5.
//
// The two charge functions, chargeIndex and chargeSSDIO, are the whole of
// that placement; the bucket IO itself is one device call either way.
//
// The engine's tree itself (speculative updates, leaf cache, Fig. 13) is
// modelled at paper scale in internal/hwtree, off the datapath.
package tablecache

import (
	"fmt"
	"time"

	"fidr/internal/fingerprint"
	"fidr/internal/hashpbn"
	"fidr/internal/hostmodel"
	"fidr/internal/metrics"
	"fidr/internal/ssd"
)

// Mode selects the management architecture.
type Mode int

const (
	// Software is the baseline's all-host cache management.
	Software Mode = iota
	// HW is FIDR's Cache HW-Engine management.
	HW
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == HW {
		return "hw-engine"
	}
	return "software"
}

// Config describes a cache instance.
type Config struct {
	// Geometry is the full on-SSD table geometry.
	Geometry hashpbn.Geometry
	// CacheLines is the number of buckets cached in host memory
	// (the paper caches 2.8% of the table).
	CacheLines int
	// Mode selects software or HW-engine management.
	Mode Mode
	// UpdateWidth is inert: nothing reads it. It stays only because the
	// frozen benchmark/layers.go names it.
	UpdateWidth int
	// TableSSD stores the full table. Required.
	TableSSD *ssd.SSD
	// Ledger receives resource charges. Required.
	Ledger *hostmodel.Ledger
	// Costs is inert: nothing reads it. It stays only because the frozen
	// benchmark/layers.go names it.
	Costs hostmodel.CostParams
}

// Stats reports cache activity.
type Stats struct {
	Lookups   uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
}

// HitRate returns hits/lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache is a bucket cache. Not safe for concurrent use: both the baseline
// and FIDR serialize table management on one thread/engine.
type Cache struct {
	cfg  Config
	geom hashpbn.Geometry
	// idx maps a cached bucket to its line. It stands in for the tree of
	// either mode: chargeIndex bills the software tree's host CPU.
	idx map[uint64]uint64

	lines      [][]byte
	lineBucket []uint64
	lineValid  []bool
	dirty      []bool
	freeList   []uint64
	// The LRU is a circular doubly linked list threaded through the line
	// numbers: entry i links line i, entry CacheLines is the sentinel
	// (its next is the most recent line, its prev the eviction victim).
	// A line that is not on the list points at itself, which makes
	// unlinking it a no-op.
	lruPrev, lruNext []uint64

	// Activity counters: read by Stats and, once attached, by "tablecache.*".
	lookups, hits, misses metrics.Counter
	evictions, flushes    metrics.Counter
	// obsProbe times every Lookup (two clock reads); nil until Instrument.
	obsProbe *metrics.Histogram
}

// Instrument publishes the cache's counters through reg as
// "tablecache.*" and starts a "stage.table_cache.ns" histogram of
// wall-clock Lookup probe times. Call once.
func (c *Cache) Instrument(reg *metrics.Registry) {
	reg.AttachCounter("tablecache.lookups", &c.lookups)
	reg.AttachCounter("tablecache.hits", &c.hits)
	reg.AttachCounter("tablecache.misses", &c.misses)
	reg.AttachCounter("tablecache.evictions", &c.evictions)
	reg.AttachCounter("tablecache.flushes", &c.flushes)
	c.obsProbe = reg.Histogram("stage.table_cache.ns")
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Geometry.NumBuckets == 0 {
		return nil, fmt.Errorf("tablecache: zero-bucket geometry")
	}
	if cfg.CacheLines < 1 {
		return nil, fmt.Errorf("tablecache: CacheLines %d", cfg.CacheLines)
	}
	if uint64(cfg.CacheLines) > cfg.Geometry.NumBuckets {
		cfg.CacheLines = int(cfg.Geometry.NumBuckets)
	}
	if cfg.TableSSD == nil || cfg.Ledger == nil {
		return nil, fmt.Errorf("tablecache: TableSSD and Ledger are required")
	}
	if need := cfg.Geometry.TableBytes(); need > cfg.TableSSD.Config().CapacityBytes {
		return nil, fmt.Errorf("tablecache: table needs %d bytes, SSD holds %d", need, cfg.TableSSD.Config().CapacityBytes)
	}
	if cfg.Mode != Software && cfg.Mode != HW {
		return nil, fmt.Errorf("tablecache: unknown mode %d", cfg.Mode)
	}
	c := &Cache{
		cfg:        cfg,
		geom:       cfg.Geometry,
		idx:        make(map[uint64]uint64, cfg.CacheLines),
		lines:      make([][]byte, cfg.CacheLines),
		lineBucket: make([]uint64, cfg.CacheLines),
		lineValid:  make([]bool, cfg.CacheLines),
		dirty:      make([]bool, cfg.CacheLines),
		lruPrev:    make([]uint64, cfg.CacheLines+1),
		lruNext:    make([]uint64, cfg.CacheLines+1),
	}
	for i := range c.lines {
		c.lines[i] = make([]byte, hashpbn.BucketSize)
		c.freeList = append(c.freeList, uint64(i))
	}
	for i := range c.lruPrev {
		c.lruPrev[i], c.lruNext[i] = uint64(i), uint64(i)
	}
	return c, nil
}

// Mode returns the management mode.
func (c *Cache) Mode() Mode { return c.cfg.Mode }

// Stats returns a snapshot of cache statistics.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:   c.lookups.Value(),
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Flushes:   c.flushes.Value(),
	}
}

// Lookup searches the table for fp, fetching its bucket through the cache.
func (c *Cache) Lookup(fp fingerprint.FP) (pbn uint64, found bool, err error) {
	var t0 time.Time
	if c.obsProbe != nil {
		t0 = time.Now()
	}
	line, err := c.getLine(c.geom.BucketOf(fp), true)
	if err != nil {
		return 0, false, err
	}
	b := hashpbn.Bucket(c.lines[line])
	pbn, found, scanned := b.Lookup(fp)
	c.chargeScan(scanned)
	if c.obsProbe != nil {
		c.obsProbe.Observe(float64(time.Since(t0).Nanoseconds()))
	}
	return pbn, found, nil
}

// Insert adds (fp, pbn) to the table through the cache, marking the line
// dirty for eventual write-back.
func (c *Cache) Insert(fp fingerprint.FP, pbn uint64) error {
	bucket := c.geom.BucketOf(fp)
	// Inserts follow a Lookup of the same fingerprint (the dedup flow),
	// so the line access is not counted as a second cache event.
	line, err := c.getLine(bucket, false)
	if err != nil {
		return err
	}
	b := hashpbn.Bucket(c.lines[line])
	scanned, err := b.Insert(fp, pbn)
	c.chargeScan(scanned)
	if err != nil {
		return fmt.Errorf("tablecache: bucket %d: %w", bucket, err)
	}
	c.dirty[line] = true
	return nil
}

// Delete removes fp from the table through the cache, reporting whether
// it was present. Used by garbage collection to retire dead chunks'
// fingerprints so future duplicates are not mapped to reclaimed space.
func (c *Cache) Delete(fp fingerprint.FP) (bool, error) {
	bucket := c.geom.BucketOf(fp)
	line, err := c.getLine(bucket, false)
	if err != nil {
		return false, err
	}
	b := hashpbn.Bucket(c.lines[line])
	removed := b.Delete(fp)
	c.chargeScan(b.Count() + 1)
	if removed {
		c.dirty[line] = true
	}
	return removed, nil
}

// chargeScan accounts a bucket content scan: host CPU (the one component
// that stays on the CPU in both modes) counts the entries compared, while
// memory traffic is the full cache line — the scan walks the 4-KB
// bucket at cache-line granularity, which is why table-cache management
// is a quarter of baseline memory bandwidth (Table 1).
func (c *Cache) chargeScan(entries int) {
	c.cfg.Ledger.Count(hostmodel.EvBucketScanEntry, uint64(entries))
	c.cfg.Ledger.Mem(hostmodel.PathTableCache, hashpbn.BucketSize)
}

// getLine returns the cache line holding bucket, fetching it on a miss.
// count selects whether the access enters the hit/miss statistics.
func (c *Cache) getLine(bucket uint64, count bool) (uint64, error) {
	if count {
		c.lookups.Inc()
	}
	c.chargeIndex(hostmodel.EvTreeLookup)
	if line, ok := c.idx[bucket]; ok {
		if count {
			c.hits.Inc()
		}
		c.touchLRU(line)
		return line, nil
	}
	if count {
		c.misses.Inc()
	}
	line, err := c.allocLine()
	if err != nil {
		return 0, err
	}
	// Fetch the bucket from the table SSD into the host-memory line; a
	// line whose fetch failed holds nothing and goes back to the free list.
	if err := c.ssdIO(false, bucket, line); err != nil {
		c.freeList = append(c.freeList, line)
		return 0, err
	}
	c.lineBucket[line] = bucket
	c.lineValid[line] = true
	c.dirty[line] = false
	c.chargeIndex(hostmodel.EvTreeUpdate)
	c.idx[bucket] = line
	c.touchLRU(line)
	return line, nil
}

// allocLine takes a line from the free list, evicting the LRU line when
// empty (the HW engine keeps the free list non-empty by periodic
// deletions; functionally we evict on demand). A dirty victim is written
// back before it is detached: if that write fails the victim stays
// cached, dirty and indexed, and no line is taken.
func (c *Cache) allocLine() (uint64, error) {
	if n := len(c.freeList); n > 0 {
		line := c.freeList[n-1]
		c.freeList = c.freeList[:n-1]
		return line, nil
	}
	head := uint64(len(c.lines))
	line := c.lruPrev[head]
	if line == head {
		return 0, fmt.Errorf("tablecache: no line to evict")
	}
	if c.dirty[line] {
		if err := c.ssdIO(true, c.lineBucket[line], line); err != nil {
			return 0, err
		}
		c.flushes.Inc()
	}
	c.lruUnlink(line)
	c.evictions.Inc()
	c.chargeIndex(hostmodel.EvTreeUpdate)
	delete(c.idx, c.lineBucket[line])
	c.lineValid[line] = false
	return line, nil
}

// touchLRU moves the line to the MRU position. The LRU list lives on the
// host in both modes (§5.5), so the small bookkeeping cost is host CPU.
func (c *Cache) touchLRU(line uint64) {
	c.cfg.Ledger.Count(hostmodel.EvLRUAccess, 1)
	c.lruUnlink(line)
	head := uint64(len(c.lines))
	first := c.lruNext[head]
	c.lruPrev[line], c.lruNext[line] = head, first
	c.lruNext[head], c.lruPrev[first] = line, line
}

// lruUnlink takes the line off the LRU list (a no-op if it is not on it).
func (c *Cache) lruUnlink(line uint64) {
	p, n := c.lruPrev[line], c.lruNext[line]
	c.lruNext[p], c.lruPrev[n] = n, p
	c.lruPrev[line], c.lruNext[line] = line, line
}

// ssdIO fetches a bucket into a line (write false) or flushes a dirty
// line to its bucket (write true), charging the right owner. The cache
// line itself is the command's buffer: the device DMAs straight into, or
// out of, it.
func (c *Cache) ssdIO(write bool, bucket, line uint64) error {
	off, verb := bucket*hashpbn.BucketSize, "read"
	var err error
	if write {
		verb, err = "write", c.cfg.TableSSD.Write(off, c.lines[line])
	} else {
		err = c.cfg.TableSSD.ReadInto(c.lines[line], off)
	}
	if err != nil {
		return fmt.Errorf("tablecache: bucket %d %s failed: %w", bucket, verb, err)
	}
	c.chargeSSDIO()
	c.cfg.Ledger.Mem(hostmodel.PathTableCache, hashpbn.BucketSize)
	return nil
}

// chargeIndex counts one index operation (a tree lookup or update) on the
// host when the tree is software — the "small data structures, big CPU bill" of Observation #4
// (43.9% of table-caching CPU in Table 2). The engine's tree costs the
// host nothing.
func (c *Cache) chargeIndex(e hostmodel.Event) {
	if c.cfg.Mode == Software {
		c.cfg.Ledger.Count(e, 1)
	}
}

// chargeSSDIO counts one bucket IO's trip through the table-SSD software
// stack when the host manages the queues; the engine's queue management
// (§6.1) costs the host nothing.
func (c *Cache) chargeSSDIO() {
	if c.cfg.Mode == Software {
		c.cfg.Ledger.Count(hostmodel.EvTableSSDIO, 1)
	}
}

// Range iterates every entry of the full Hash-PBN table — not just the
// cached portion — pulling each bucket through the cache. Used by
// offline verification; the pass thrashes the cache by design (each of
// the table's buckets is touched once) and does not enter the hit/miss
// statistics.
func (c *Cache) Range(fn func(fp fingerprint.FP, pbn uint64)) error {
	for b := uint64(0); b < c.geom.NumBuckets; b++ {
		line, err := c.getLine(b, false)
		if err != nil {
			return err
		}
		hashpbn.Bucket(c.lines[line]).ForEach(fn)
	}
	return nil
}

// Scrub walks the full table and deletes every entry keep rejects,
// returning how many were dropped. Crash recovery uses it to drop stale
// entries the write-back cache made durable ahead of the recovered
// metadata. Modified buckets are marked dirty and reach the table SSD
// through the normal write-back path.
func (c *Cache) Scrub(keep func(fp fingerprint.FP, pbn uint64) bool) (int, error) {
	dropped := 0
	for b := uint64(0); b < c.geom.NumBuckets; b++ {
		line, err := c.getLine(b, false)
		if err != nil {
			return dropped, err
		}
		bucket := hashpbn.Bucket(c.lines[line])
		var victims []fingerprint.FP
		bucket.ForEach(func(fp fingerprint.FP, pbn uint64) {
			if !keep(fp, pbn) {
				victims = append(victims, fp)
			}
		})
		for _, fp := range victims {
			if bucket.Delete(fp) {
				c.dirty[line] = true
				dropped++
			}
		}
	}
	return dropped, nil
}

// FlushAll writes every dirty line to the table SSD (shutdown path).
func (c *Cache) FlushAll() error {
	for line := range c.lines {
		if c.lineValid[line] && c.dirty[line] {
			if err := c.ssdIO(true, c.lineBucket[line], uint64(line)); err != nil {
				return err
			}
			c.dirty[line] = false
			c.flushes.Inc()
		}
	}
	return nil
}
