// Package blockcomp provides the block compressors used by the FIDR and
// baseline compression engines, plus utilities to synthesize data with a
// target compressibility (the paper pins workloads at a 50% compression
// ratio by construction, §7.1 factor 4).
//
// One compressor is provided: LZ, a dependency-free byte-oriented LZ77
// variant resembling what fits in FPGA compression cores (greedy matching,
// 64-KB window, no entropy stage). Compressor is the seam for any other
// (core.Config.Compressor).
//
// LZ is the write path's hottest kernel: its match table is epoch-tagged
// (cleared on first use and on 32-bit wrap, not per call) and it scans and
// extends matches a word at a time. Its token stream is byte-identical to
// the reference kernel's for every input (TestLZOutputGolden) — that keeps
// reduction ratios, on-SSD bytes and lane determinism fixed.
package blockcomp

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
