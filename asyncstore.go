package fidr

import (
	"fmt"

	"fidr/internal/chunk"
	"fidr/internal/core"
)

// AsyncStore adapts an Async front-end to the chunk-store surface the
// protocol listener serves (proto.Store plus its traced extension).
// With this front, the listener no longer needs its cross-connection
// mutex: each group has one owner at a time (see Async) — pass
// proto.WithConcurrentStore when serving one.
type AsyncStore struct {
	a         *Async
	chunkSize int
}

// NewAsyncStore wraps a. chunkSize must match the underlying store's
// chunk size.
func NewAsyncStore(a *Async, chunkSize int) (*AsyncStore, error) {
	if chunkSize < 1 {
		return nil, fmt.Errorf("fidr: chunk size %d", chunkSize)
	}
	return &AsyncStore{a: a, chunkSize: chunkSize}, nil
}

// ChunkSize reports the store's chunk size.
func (s *AsyncStore) ChunkSize() int { return s.chunkSize }

// Write runs the write on the caller; data is borrowed until it returns.
func (s *AsyncStore) Write(lba uint64, data []byte) error {
	return s.WriteTraced(lba, data, nil)
}

// Read runs the read on the caller.
func (s *AsyncStore) Read(lba uint64) ([]byte, error) {
	return s.ReadTraced(lba, nil)
}

// ReadRange reads n consecutive chunks in turn, each on the group that
// owns it, and concatenates them in LBA order.
func (s *AsyncStore) ReadRange(lba uint64, n int) ([]byte, error) {
	return s.ReadRangeTraced(lba, n, nil)
}

// WriteTraced is Write with a wire trace context (nil: untraced).
func (s *AsyncStore) WriteTraced(lba uint64, data []byte, tc *TraceContext) error {
	_, err := s.a.call(asyncReq{write: true, lba: lba, data: data, ctx: tc.Wire()})
	return err
}

// ReadTraced is Read with a wire trace context.
func (s *AsyncStore) ReadTraced(lba uint64, tc *TraceContext) ([]byte, error) {
	return s.a.call(asyncReq{lba: lba, ctx: tc.Wire()})
}

// ReadRangeTraced is ReadRange with a wire trace context shared by
// every chunk read.
func (s *AsyncStore) ReadRangeTraced(lba uint64, n int, tc *TraceContext) ([]byte, error) {
	return core.ReadRange(s, lba, n, func(at uint64) ([]byte, error) { return s.ReadTraced(at, tc) })
}

// Chunking is the chunking of the servers behind the groups (it is
// uniform), whose unit ReadRange and the listener's batch ops walk in. A
// store that is not a server has no chunker to ask and is taken to hold
// one chunkSize chunk per address.
func (s *AsyncStore) Chunking() chunk.Config {
	if srv, ok := s.a.groups[0].s.(*Server); ok {
		return srv.Chunking()
	}
	return chunk.Fixed(s.chunkSize)
}
