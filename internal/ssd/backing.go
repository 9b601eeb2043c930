package ssd

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
)

// backing is the device's content store. Implementations need not be
// concurrency-safe; SSD serializes access.
type backing interface {
	// write stores data at byte offset off (bounds already checked).
	write(off uint64, data []byte) error
	// read fills dst from byte offset off; never-written regions read
	// as zeros.
	read(dst []byte, off uint64) error
	// pages estimates occupied pages.
	pages() int
	// close releases resources.
	close() error
}

// slabSize is the length of one page slab: one huge page where the
// kernel grants it.
const slabSize = 2 << 20

// mappedSlabs counts the slabs mapped by every in-memory device and not
// yet released.
var mappedSlabs atomic.Int64

// memBacking keeps pages in slabs outside the Go heap (mapSlab), handed
// out one slot per page on first touch and never reused, so a new slot
// reads as zeros. The heap holds only the page → slot index, which has
// no pointers for the collector to scan. Slabs are released by close or,
// for a device dropped without Close, by the finalizer.
type memBacking struct {
	pageSize int
	perSlab  int            // slots per slab
	index    map[uint64]int // page → slot; slots are handed out in order
	slabs    [][]byte
}

func newMemBacking(pageSize int) *memBacking {
	b := &memBacking{
		pageSize: pageSize,
		perSlab:  max(1, slabSize/pageSize),
		index:    make(map[uint64]int),
	}
	runtime.SetFinalizer(b, (*memBacking).release)
	return b
}

// slot returns the bytes of slot i.
func (b *memBacking) slot(i int) []byte {
	at := (i % b.perSlab) * b.pageSize
	return b.slabs[i/b.perSlab][at : at+b.pageSize]
}

func (b *memBacking) write(off uint64, data []byte) error {
	ps := uint64(b.pageSize)
	for n := 0; n < len(data); {
		page := (off + uint64(n)) / ps
		inPage := (off + uint64(n)) % ps
		chunk := min(int(ps-inPage), len(data)-n)
		i, ok := b.index[page]
		if !ok {
			i = len(b.index)
			if i == len(b.slabs)*b.perSlab {
				m, err := mapSlab(b.perSlab * b.pageSize)
				if err != nil {
					return fmt.Errorf("map page slab: %w", err)
				}
				mappedSlabs.Add(1)
				b.slabs = append(b.slabs, m)
			}
			b.index[page] = i
		}
		copy(b.slot(i)[inPage:], data[n:n+chunk])
		n += chunk
	}
	runtime.KeepAlive(b) // the slab outlives the copy only while b does
	return nil
}

func (b *memBacking) read(dst []byte, off uint64) error {
	ps := uint64(b.pageSize)
	for n := 0; n < len(dst); {
		page := (off + uint64(n)) / ps
		inPage := (off + uint64(n)) % ps
		chunk := min(int(ps-inPage), len(dst)-n)
		if i, ok := b.index[page]; ok {
			copy(dst[n:n+chunk], b.slot(i)[inPage:])
		} else {
			clear(dst[n : n+chunk])
		}
		n += chunk
	}
	runtime.KeepAlive(b)
	return nil
}

func (b *memBacking) pages() int { return len(b.index) }

// release returns every slab to the system.
func (b *memBacking) release() {
	for _, m := range b.slabs {
		unmapSlab(m)
		mappedSlabs.Add(-1)
	}
	b.slabs, b.index = nil, nil
}

func (b *memBacking) close() error {
	runtime.SetFinalizer(b, nil)
	b.release()
	return nil
}

// fileBacking persists contents in a sparse file: writes land with
// WriteAt, holes read as zeros. Durable across process restarts.
type fileBacking struct {
	f        *os.File
	pageSize int
}

func newFileBacking(path string, pageSize int) (*fileBacking, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("backing file: %w", err)
	}
	return &fileBacking{f: f, pageSize: pageSize}, nil
}

func (b *fileBacking) write(off uint64, data []byte) error {
	if _, err := b.f.WriteAt(data, int64(off)); err != nil {
		return fmt.Errorf("backing write: %w", err)
	}
	return nil
}

func (b *fileBacking) read(dst []byte, off uint64) error {
	n, err := b.f.ReadAt(dst, int64(off))
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// Beyond the file's high-water mark: zero-fill the tail.
		clear(dst[n:])
		return nil
	}
	if err != nil {
		return fmt.Errorf("backing read: %w", err)
	}
	return nil
}

func (b *fileBacking) pages() int {
	st, err := b.f.Stat()
	if err != nil {
		return 0
	}
	return int((st.Size() + int64(b.pageSize) - 1) / int64(b.pageSize))
}

func (b *fileBacking) close() error { return b.f.Close() }
