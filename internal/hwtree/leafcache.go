package hwtree

import (
	"container/list"

	"fidr/internal/metrics"
)

// LeafCacheSim measures the on-chip leaf-cache hit rate of a lookup
// stream: the Cache HW-Engine keeps a small BRAM cache over the DRAM-
// resident leaf level, so repeated lookups that land in recently used
// leaves avoid the DRAM port. The measured hit rate feeds
// WorkloadPoint.LeafCacheHit in the throughput model.
type LeafCacheSim struct {
	capacity int
	order    *list.List
	index    map[NodeID]*list.Element

	// Counters, so HitRate may be read while another goroutine drives Access.
	hits, misses metrics.Counter
}

// NewLeafCacheSim creates an LRU leaf-cache simulator holding up to
// capacity leaves.
func NewLeafCacheSim(capacity int) *LeafCacheSim {
	if capacity < 1 {
		capacity = 1
	}
	return &LeafCacheSim{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[NodeID]*list.Element),
	}
}

// Access records a lookup touching leaf id, returning whether it hit.
func (c *LeafCacheSim) Access(id NodeID) bool {
	if el, ok := c.index[id]; ok {
		c.order.MoveToFront(el)
		c.hits.Inc()
		return true
	}
	c.misses.Inc()
	el := c.order.PushFront(id)
	c.index[id] = el
	if c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.index, back.Value.(NodeID))
	}
	return false
}

// Invalidate drops a leaf (e.g. after structural changes reshape it).
func (c *LeafCacheSim) Invalidate(id NodeID) {
	if el, ok := c.index[id]; ok {
		c.order.Remove(el)
		delete(c.index, id)
	}
}

// HitRate returns hits / (hits + misses).
func (c *LeafCacheSim) HitRate() float64 {
	hits, total := c.hits.Value(), c.Accesses()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Accesses returns the total access count.
func (c *LeafCacheSim) Accesses() uint64 { return c.hits.Value() + c.misses.Value() }
