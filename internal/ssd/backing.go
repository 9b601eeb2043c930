package ssd

import (
	"fmt"
	"io"
	"os"
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

// memBacking keeps pages in a sparse map — fast, gone at process exit.
type memBacking struct {
	pageSize int
	m        map[uint64][]byte
}

func newMemBacking(pageSize int) *memBacking {
	return &memBacking{pageSize: pageSize, m: make(map[uint64][]byte)}
}

func (b *memBacking) write(off uint64, data []byte) error {
	ps := uint64(b.pageSize)
	for n := 0; n < len(data); {
		page := (off + uint64(n)) / ps
		inPage := (off + uint64(n)) % ps
		chunk := int(ps - inPage)
		if chunk > len(data)-n {
			chunk = len(data) - n
		}
		buf, ok := b.m[page]
		if !ok {
			buf = make([]byte, ps)
			b.m[page] = buf
		}
		copy(buf[inPage:], data[n:n+chunk])
		n += chunk
	}
	return nil
}

func (b *memBacking) read(dst []byte, off uint64) error {
	ps := uint64(b.pageSize)
	for i := 0; i < len(dst); {
		page := (off + uint64(i)) / ps
		inPage := (off + uint64(i)) % ps
		chunk := int(ps - inPage)
		if chunk > len(dst)-i {
			chunk = len(dst) - i
		}
		if buf, ok := b.m[page]; ok {
			copy(dst[i:i+chunk], buf[inPage:inPage+uint64(chunk)])
		} else {
			clear(dst[i : i+chunk])
		}
		i += chunk
	}
	return nil
}

func (b *memBacking) pages() int { return len(b.m) }
func (b *memBacking) close() error {
	b.m = nil
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
