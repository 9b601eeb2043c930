// Package blockcomp provides the block compressors used by the FIDR and
// baseline compression engines, plus utilities to synthesize data with a
// target compressibility (the paper pins workloads at a 50% compression
// ratio by construction, §7.1 factor 4).
//
// Two production compressors are provided: Flate (stdlib DEFLATE, the
// high-ratio reference) and LZ (a dependency-free byte-oriented LZ77
// variant resembling what fits in FPGA compression cores: greedy matching,
// 64-KB window, no entropy stage). Null passes data through for
// reduction-disabled configurations.
//
// LZ is the write path's hottest kernel: its match table is epoch-tagged
// (cleared on first use and on 32-bit wrap, not per call) and it scans and
// extends matches a word at a time. Its token stream is byte-identical to
// the reference kernel's for every input (TestLZOutputGolden) — that keeps
// reduction ratios, on-SSD bytes and lane determinism fixed.
package blockcomp

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Compressor compresses and decompresses single chunks. Implementations
// must be safe for concurrent use by multiple goroutines.
type Compressor interface {
	// Name identifies the algorithm.
	Name() string
	// Compress returns the compressed form of src. The result must be
	// decompressible by Decompress. Implementations may return a result
	// longer than src for incompressible input; callers decide whether
	// to store raw instead.
	Compress(src []byte) ([]byte, error)
	// Decompress reverses Compress. dstSize is the exact decompressed
	// size (known from chunk metadata).
	Decompress(src []byte, dstSize int) ([]byte, error)
}

// AppendCompressor is implemented by compressors that can compress into
// a caller-provided buffer, appending to dst and returning the extended
// slice. The compression-engine lanes rely on this to reuse one output
// buffer per batch slot instead of allocating per chunk.
type AppendCompressor interface {
	Compressor
	// CompressAppend appends the compressed form of src to dst
	// (typically dst[:0] of a recycled buffer) and returns the result.
	CompressAppend(dst, src []byte) ([]byte, error)
}

// CompressAppend compresses src appending to dst, using the compressor's
// native append support when available and falling back to Compress plus
// a copy otherwise (custom compressors keep working, just without buffer
// reuse).
func CompressAppend(c Compressor, dst, src []byte) ([]byte, error) {
	if a, ok := c.(AppendCompressor); ok {
		return a.CompressAppend(dst, src)
	}
	out, err := c.Compress(src)
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

// Ratio returns compressed/original size; 0.5 means "compressed to half".
func Ratio(original, compressed int) float64 {
	if original == 0 {
		return 1
	}
	return float64(compressed) / float64(original)
}

// --- Null ---

// Null is the identity compressor.
type Null struct{}

// Name implements Compressor.
func (Null) Name() string { return "null" }

// Compress implements Compressor.
func (Null) Compress(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// CompressAppend implements AppendCompressor.
func (Null) CompressAppend(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}

// Decompress implements Compressor.
func (Null) Decompress(src []byte, dstSize int) ([]byte, error) {
	if len(src) != dstSize {
		return nil, fmt.Errorf("blockcomp: null size mismatch: have %d want %d", len(src), dstSize)
	}
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// --- Flate ---

// Flate compresses with stdlib DEFLATE at the given level.
type Flate struct {
	Level int
	// writers recycles flate.Writer state (the dominant allocation:
	// ~700 KB of match tables per writer). Safe for concurrent use.
	writers sync.Pool
}

// NewFlate returns a DEFLATE compressor. Level follows compress/flate
// (1 fastest .. 9 best, -1 default).
func NewFlate(level int) *Flate { return &Flate{Level: level} }

// Name implements Compressor.
func (f *Flate) Name() string { return fmt.Sprintf("flate-%d", f.Level) }

// appendWriter appends written bytes to a slice (io.Writer over dst).
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// Compress implements Compressor.
func (f *Flate) Compress(src []byte) ([]byte, error) {
	return f.CompressAppend(nil, src)
}

// CompressAppend implements AppendCompressor with a recycled writer.
func (f *Flate) CompressAppend(dst, src []byte) ([]byte, error) {
	aw := &appendWriter{b: dst}
	w, _ := f.writers.Get().(*flate.Writer)
	if w == nil {
		var err error
		if w, err = flate.NewWriter(aw, f.Level); err != nil {
			return nil, fmt.Errorf("blockcomp: flate writer: %w", err)
		}
	} else {
		w.Reset(aw)
	}
	if _, err := w.Write(src); err != nil {
		return nil, fmt.Errorf("blockcomp: flate compress: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("blockcomp: flate close: %w", err)
	}
	f.writers.Put(w)
	return aw.b, nil
}

// Decompress implements Compressor.
func (f *Flate) Decompress(src []byte, dstSize int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	out := make([]byte, dstSize)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("blockcomp: flate decompress: %w", err)
	}
	// Require exact size: trailing data means corrupted metadata.
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("blockcomp: flate stream longer than %d", dstSize)
	}
	return out, nil
}
