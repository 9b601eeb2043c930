package lbatable

import "fmt"

// Builder packs compressed chunks into a container. The compression
// engines accumulate compressed output until the container threshold is
// reached (§5.3 step 8), then the whole container is written to a data SSD
// in one sequential IO.
//
// Chunks are aligned to OffsetUnit inside the container so their offsets
// fit the 16-bit level-2 entries.
type Builder struct {
	size      int
	container uint64
	buf       []byte
	used      int
	count     int
	// spare holds sealed buffers handed back by Recycle, already zeroed.
	spare [][]byte
}

// NewBuilder creates a Builder producing containers of the given size.
// The first container has index firstContainer.
func NewBuilder(size int, firstContainer uint64) (*Builder, error) {
	if size <= 0 || size%OffsetUnit != 0 {
		return nil, fmt.Errorf("lbatable: container size %d must be a positive multiple of %d", size, OffsetUnit)
	}
	return &Builder{size: size, container: firstContainer, buf: make([]byte, size)}, nil
}

// Fits reports whether a chunk of n bytes fits in the open container.
func (b *Builder) Fits(n int) bool {
	return b.used+align(n) <= b.size && n <= b.size
}

func align(n int) int {
	return (n + OffsetUnit - 1) / OffsetUnit * OffsetUnit
}

// Append copies a compressed chunk into the container and returns its
// container index and byte offset. The caller must check Fits first;
// Append fails rather than splitting a chunk across containers.
func (b *Builder) Append(cdata []byte) (container uint64, off uint32, err error) {
	if len(cdata) == 0 {
		return 0, 0, fmt.Errorf("lbatable: empty chunk")
	}
	if !b.Fits(len(cdata)) {
		return 0, 0, fmt.Errorf("lbatable: chunk of %d bytes does not fit (used %d/%d)", len(cdata), b.used, b.size)
	}
	off = uint32(b.used)
	copy(b.buf[b.used:], cdata)
	b.used += align(len(cdata))
	b.count++
	return b.container, off, nil
}

// Used returns the bytes consumed in the open container (aligned).
func (b *Builder) Used() int { return b.used }

// Peek reads n bytes at offset off from the open container, for serving
// reads of chunks that have not been sealed to an SSD yet. Returns false
// when the range exceeds the bytes appended so far (Used is aligned past
// every appended chunk, so any stored chunk is fully readable).
func (b *Builder) Peek(off, n int) ([]byte, bool) {
	if off < 0 || n < 0 || off+n > b.used {
		return nil, false
	}
	return b.buf[off : off+n], true
}

// Count returns the number of chunks in the open container.
func (b *Builder) Count() int { return b.count }

// Container returns the index of the open container.
func (b *Builder) Container() uint64 { return b.container }

// Seal closes the current container and starts the next one. It returns
// the sealed container's index and its full-size contents (zero padded),
// ready for one sequential SSD write; the caller owns data until it hands
// it back with Recycle, if ever. Sealing an empty container returns
// ok=false and advances nothing.
func (b *Builder) Seal() (container uint64, data []byte, ok bool) {
	if b.count == 0 {
		return 0, nil, false
	}
	container = b.container
	data = b.buf
	b.container++
	if n := len(b.spare); n > 0 {
		b.buf, b.spare = b.spare[n-1], b.spare[:n-1]
	} else {
		b.buf = make([]byte, b.size)
	}
	b.used = 0
	b.count = 0
	return container, data, true
}

// Recycle takes back a buffer Seal returned, once nothing reads it any
// more. It is zeroed here, so padding is zero as in a fresh buffer and
// containers on the SSD are byte-identical either way. The caller must not
// touch data afterwards; a buffer of the wrong size is dropped.
func (b *Builder) Recycle(data []byte) {
	if len(data) != b.size {
		return
	}
	clear(data)
	b.spare = append(b.spare, data)
}
