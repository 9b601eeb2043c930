package core

import "container/list"

// readCache is the §8 hot-block extension: an LRU of decompressed chunks
// in host memory, consulted before the backend on FIDR reads. It absorbs
// skewed read traffic that would otherwise hammer one data SSD, at the
// price of host DRAM capacity (cheap) and a host-memory copy per hit.
type readCache struct {
	capacity int
	order    *list.List
	index    map[uint64]*list.Element

	hits, misses uint64
}

type readCacheEntry struct {
	lba  uint64
	data []byte
}

func newReadCache(capacity int) *readCache {
	if capacity <= 0 {
		return nil
	}
	return &readCache{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[uint64]*list.Element, capacity),
	}
}

// appendTo appends the cached chunk to dst, if present.
func (c *readCache) appendTo(dst []byte, lba uint64) ([]byte, bool) {
	if c == nil {
		return dst, false
	}
	el, ok := c.index[lba]
	if !ok {
		c.misses++
		return dst, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return append(dst, el.Value.(*readCacheEntry).data...), true
}

// put caches a chunk (copied). A re-put reuses its entry's buffer; when
// the cache is full, the LRU entry's list element and buffer take the new
// chunk, so a full cache allocates nothing.
func (c *readCache) put(lba uint64, data []byte) {
	if c == nil {
		return
	}
	el, ok := c.index[lba]
	if !ok {
		if c.order.Len() < c.capacity {
			el = c.order.PushFront(&readCacheEntry{})
		} else {
			el = c.order.Back()
			delete(c.index, el.Value.(*readCacheEntry).lba)
		}
		el.Value.(*readCacheEntry).lba = lba
		c.index[lba] = el
	}
	e := el.Value.(*readCacheEntry)
	e.data = append(e.data[:0], data...)
	c.order.MoveToFront(el)
}

// invalidate drops a stale entry after an overwrite.
func (c *readCache) invalidate(lba uint64) {
	if c == nil {
		return
	}
	if el, ok := c.index[lba]; ok {
		c.order.Remove(el)
		delete(c.index, lba)
	}
}

// hitRate returns hits/(hits+misses).
func (c *readCache) hitRate() float64 {
	if c == nil || c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}
