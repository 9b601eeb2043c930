// Package bufpool recycles chunk-sized byte buffers across the write
// path. The hot loops copy every 4-KB client chunk once on ingest (into
// NIC memory for FIDR, into the host request buffer for the baseline)
// and once more into the read cache; allocating each copy fresh made the
// allocator the second-hottest site in write-path profiles. Buffers are
// taken here instead and returned once container packing (or cache
// eviction) no longer references them.
//
// The pool is deliberately a mutexed free list rather than a sync.Pool:
// Get/Put sit on serial orchestration code (never inside accelerator
// lanes), the working set is bounded by the NIC buffer, and a free list
// keeps Put allocation-free so testing.AllocsPerRun can assert the
// steady state.
package bufpool

import "sync"

// maxPooledBytes caps retained memory; beyond it, Put drops buffers to
// the garbage collector. 64 MiB covers the default 16-MiB NIC buffer,
// the baseline batch and the read cache with room for bursts.
const maxPooledBytes = 64 << 20

var global = &pool{classes: make(map[int][][]byte)}

// pool holds per-capacity free lists. Chunk copies are all ChunkSize
// bytes in one server, so the map stays tiny; exact-capacity classes
// keep Get from ever returning an oversized buffer.
type pool struct {
	mu      sync.Mutex
	classes map[int][][]byte
	held    int
}

// Get returns a buffer of length n. Contents are unspecified; callers
// must overwrite all n bytes.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	global.mu.Lock()
	if free := global.classes[n]; len(free) > 0 {
		b := free[len(free)-1]
		global.classes[n] = free[:len(free)-1]
		global.held -= n
		global.mu.Unlock()
		return b[:n]
	}
	global.mu.Unlock()
	return make([]byte, n)
}

// Put returns a buffer for reuse. The caller must not touch b afterward.
// Nil and zero-capacity buffers are ignored; the pool drops buffers once
// its retained-byte budget is exhausted.
func Put(b []byte) {
	c := cap(b)
	if c == 0 {
		return
	}
	global.mu.Lock()
	if global.held+c <= maxPooledBytes {
		global.classes[c] = append(global.classes[c], b[:c])
		global.held += c
	}
	global.mu.Unlock()
}
