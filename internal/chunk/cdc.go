package chunk

// Content-defined chunking (CDC) is the variable-size alternative the
// paper rejects for inline reduction because of its computational cost
// (§2.1.1). SeqCDC and VectorCDC (Udayashankar et al., see PAPERS.md)
// showed that the cost argument is soft: skip-ahead scanning plus wide
// word-at-a-time anchor tests recover an order of magnitude of chunking
// throughput. This file implements that design so the fixed-vs-CDC
// trade-off can be measured live end-to-end.
//
// # Boundary rule
//
// The chunker rolls a gear hash over each chunk's bytes, starting from
// zero at the chunk start:
//
//	h(-1) = 0;  h(i) = h(i-1)<<1 XOR G[data[i]]
//
// where G is a precomputed 256-entry table (deterministic splitmix64
// values, so boundaries are stable across runs and processes). Position
// i ends the chunk when i >= Min and the masked bits of h(i) — bit 0
// and bits 2..maskBits, maskBits = log2(Avg) - 7 clamped to [1, 62] —
// are all set; the scan gives up at Max. (Bit 1 is excluded: at an
// anchor position it collapses to the fixed bit 1 of G[cdcAnchor],
// because the only other contribution is the almost-always-zero bit 0
// of the previous byte's G entry.) Because the update shifts left and
// folds with XOR
// (no carries), bit b of h(i) depends only on the last b+1 bytes — the
// hash is self-windowing, the rule for a chunk depends only on that
// chunk's bytes, and chunking a stream suffix that begins on a boundary
// reproduces the remaining boundaries exactly. That property lets
// callers feed a stream in segments and resume after draining a batch,
// and makes boundaries resynchronize a few bytes after an insertion —
// the classic CDC win over fixed chunking.
//
// # Scalar reference vs fast path
//
// ReferenceBoundaries is the canonical gear loop and the executable
// specification: one table load, shift, XOR and mask test per byte,
// from the chunk start (the rolling state must be warm before the first
// candidate, so a byte-at-a-time implementation cannot skip the [0,
// Min) prefix). The fast path exploits two algebraic shortcuts:
//
//  1. Anchor property (VectorCDC's trick, derived from the table
//     rather than SIMD intrinsics): G is constructed so that bit 0 of
//     G[b] is set iff b == cdcAnchor. Bit 0 of h(i) equals bit 0 of
//     G[data[i]], so every boundary position must hold the anchor
//     byte. The fast path therefore scans for cdcAnchor with uint64
//     word loads — eight positions per SWAR zero-byte test, four words
//     per 32-byte block with a single branch — and touches the hash
//     only at anchor hits (1/256 of positions on random data).
//  2. Skip-ahead (SeqCDC's trick): only the low maskBits bits of h are
//     tested and bit b depends on the last b+1 bytes, so the masked
//     hash at a candidate i is recomputed exactly by folding G over
//     data[i-maskBits .. i] (clamped at the chunk start). Nothing
//     before max(Min, 0) - maskBits is ever read: the fast path starts
//     scanning at Min instead of warming state from byte zero.
//  3. Linear confirm: bits 1..7 of G[b] are GF(2)-linear in the bits
//     of b (bit r = parity(b & gearParity[r])), and the gear fold is
//     GF(2)-linear in the table entries, so each masked hash bit at a
//     candidate is the parity of the 8-byte window word ANDed with a
//     precomputed 64-bit coefficient — one load, then an AND and a
//     POPCNT per mask bit, no table lookups. Applicable when the
//     window fits one word (maskBits <= 7, i.e. Avg <= 16 KiB, and the
//     candidate is at least 7 bytes into the chunk) and no other
//     anchor byte sits in the window (whose bit-0 table entry is not
//     linear; ~3% of candidates); everything else falls back to the
//     table fold.
//
// The two paths are proven byte-identical by property and fuzz tests
// (cdc_equiv_test.go, fuzz_cdc_test.go), and BenchmarkCDCBoundaries
// measures the speedup, which is the point: the scalar loop pays
// ~3 ops/byte over every byte, the fast path ~1 op/byte over the bytes
// past Min.

import (
	"encoding/binary"
	"math/bits"
)

const (
	// cdcAnchor is the byte every boundary position must hold (the
	// gear table sets bit 0 only for it). Probability 1/256 per
	// position on byte-random data.
	cdcAnchor = 0xA4
	// cdcMinMaskBits / cdcMaxMaskBits clamp the highest masked hash
	// bit. At least one bit keeps the mask non-degenerate (a zero mask
	// would cut at every position past Min); 62 keeps the mask
	// construction and the maskBits+1-byte lookback inside one uint64.
	cdcMinMaskBits = 1
	cdcMaxMaskBits = 62
)

// cdcAnchorWord is cdcAnchor replicated into every byte lane.
const cdcAnchorWord = 0xA4A4A4A4A4A4A4A4

// gearParity[r] defines bit r of every gear-table entry as
// parity(byte & gearParity[r]) for r in 1..7. The values only need to
// be nonzero (uniformity of each masked hash bit follows from the
// per-position lane structure, see the package comment); these are
// arbitrary fixed bytes so boundaries stay stable across runs.
var gearParity = [8]byte{0, 0x95, 0x2F, 0x61, 0xD3, 0x4A, 0xB8, 0x7C}

// CDC is a content-defined chunker with a skip-ahead, word-at-a-time
// fast path. Construct with NewCDC or Config.NewChunker; the zero value
// is not usable.
type CDC struct {
	Min, Avg, Max int
	// mask selects the hash bits that must all be set at a boundary:
	// bit 0 (the anchor bit) and bits 2..maskBits. The hash lookback in
	// bytes is maskBits+1.
	mask     uint64
	maskBits int
	// table is the gear table; deterministic (splitmix64 over the byte
	// value) with bit 0 carrying the anchor property and bits 1..7
	// linear in the byte's bits (gearParity) for the linear confirm.
	table [256]uint64
	// q[b], for mask bits 2..maskBits when maskBits <= 7, is the
	// 64-bit coefficient such that bit b of the hash at candidate i is
	// parity(window & q[b]), window = LE64(data[i-7 .. i]), provided
	// no anchor byte occupies window lanes 0..6.
	q [8]uint64
	// linear reports whether q is usable (maskBits fits the window).
	linear bool
}

// NewCDC returns a content-defined chunker with the given minimum,
// average and maximum chunk sizes. avg must be a power of two between
// min and max. Boundary probability per scanned position is
// 2^-(maskBits+7): 1/avg for avg >= 256; smaller averages clamp to
// 1/256 (the anchor byte's rate) and run long.
//
// min == max is fixed-size chunking: no position lies between Min and
// Max, so the content is never consulted, every cut lands at a multiple
// of the size (the tail of the input may be short), and avg need not be
// a power of two.
func NewCDC(min, avg, max int) *CDC {
	if min <= 0 || avg < min || max < avg || (avg&(avg-1) != 0 && min != max) {
		panic("chunk: invalid CDC parameters")
	}
	maskBits := bits.Len(uint(avg)) - 1 - 7
	if maskBits < cdcMinMaskBits {
		maskBits = cdcMinMaskBits
	}
	if maskBits > cdcMaxMaskBits {
		maskBits = cdcMaxMaskBits
	}
	// Bits 0 and 2..maskBits: maskBits set bits total, of which bit 0
	// fires at the anchor rate 2^-8 and the rest are uniform, giving
	// boundary probability 2^-(maskBits+7) per position.
	c := &CDC{Min: min, Avg: avg, Max: max, mask: (1<<(maskBits+1) - 1) &^ 2, maskBits: maskBits}
	// Deterministic pseudo-random gear table (splitmix64-style) so
	// chunking is stable across runs. Bit 0 is reserved for the anchor
	// property the fast path's word scan relies on, and bits 1..7 are
	// the gearParity linear functions the linear confirm relies on;
	// bits 8..63 never reach a mask (cdcMaxMaskBits bounds the masked
	// bits that matter to 0..62, but bits above 7 only feed mask bits
	// through the fold's left shifts, which keeps them pseudo-random).
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.table {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		e := (z ^ z>>31) &^ 0xFF
		if i == cdcAnchor {
			e |= 1
		}
		for r := 1; r <= 7; r++ {
			if bits.OnesCount8(uint8(i)&uint8(gearParity[r]))&1 == 1 {
				e |= 1 << r
			}
		}
		c.table[i] = e
	}
	// Coefficients for the linear confirm: hash bit b at candidate i is
	// XOR over j=0..b-1 of parity(data[i-j] & gearParity[b-j]) (plus
	// the bit-0 anchor terms the caller rules out), i.e. the parity of
	// the window word masked with gearParity[b-j] in lane 7-j.
	if c.maskBits <= 7 {
		c.linear = true
		for b := 2; b <= c.maskBits; b++ {
			for j := 0; j < b; j++ {
				c.q[b] |= uint64(gearParity[b-j]) << ((7 - j) * 8)
			}
		}
	}
	return c
}

// confirm recomputes the masked gear hash at candidate position i of
// data (the current chunk's bytes start at data[0]) by folding the
// table over the hash's exact lookback window. Called only on anchor
// hits, so its cost is amortized over ~256 scanned bytes.
func (c *CDC) confirm(data []byte, i int) bool {
	if c.linear && i >= 7 {
		w := binary.LittleEndian.Uint64(data[i-7:])
		// Lanes 0..6 must be anchor-free for the linear form (the
		// bit-0 anchor terms vanish); lane 7 is the candidate itself.
		// The detector is exact here: lane 7 is zero, so false
		// positives (only possible above a real zero lane) cannot
		// reach lanes 0..6.
		if hasZeroByte(w^cdcAnchorWord)&0x0080808080808080 == 0 {
			// Branchless all-bits-set test: a data-dependent early
			// exit would mispredict on nearly every call.
			acc := 1
			for b := 2; b <= c.maskBits; b++ {
				acc &= bits.OnesCount64(w & c.q[b])
			}
			return acc&1 == 1
		}
	}
	return c.confirmFold(data, i)
}

// confirmFold is the table-fold confirm, used near the chunk start,
// for masks wider than the window word, and when another anchor byte
// sits in the window (its bit-0 table entry is the one non-linear bit).
// The gear fold h = h<<1 ^ G[b] is rewritten as the XOR of
// independently shifted table terms: the shift applies to each term,
// not the accumulator, so the loads and shifts have no loop-carried
// dependency and overlap across iterations.
func (c *CDC) confirmFold(data []byte, i int) bool {
	lo := i - c.maskBits
	if lo < 0 {
		lo = 0
	}
	w := data[lo : i+1]
	sh := uint(len(w))
	var h uint64
	for j, b := range w {
		h ^= c.table[b] << (sh - 1 - uint(j))
	}
	return h&c.mask == c.mask
}

// hasZeroByte reports (nonzero result) whether v contains a zero byte.
// The classic SWAR detector: the lowest set 0x80 bit marks the first
// zero byte exactly; higher bits can be false positives, so per-byte
// consumers must re-verify.
func hasZeroByte(v uint64) uint64 {
	return (v - 0x0101010101010101) &^ v & 0x8080808080808080
}

// nextCut returns the length of the chunk starting at data[0], using
// the wide fast path: skip straight to Min, test eight positions per
// uint64 word for the anchor byte, four words (32 bytes) per loop
// iteration with a single branch, and recompute the masked hash only
// where a word flags an anchor. Byte-identical to nextCutReference by
// construction and by the equivalence tests.
func (c *CDC) nextCut(data []byte) int {
	n := len(data)
	if n <= c.Min {
		return n
	}
	limit := c.Max
	if n < limit {
		limit = n
	}
	i := c.Min
	// 64 bytes per iteration as two 32-byte groups. Each group ORs its
	// four per-word detectors so the common no-anchor case costs one
	// branch per group, and keeps the masks in registers so a flagged
	// group goes straight to verifyWord with no recomputation. The
	// full-length reslice lets the compiler prove every constant-offset
	// load in bounds with a single check.
	for i+64 <= limit {
		blk := data[i : i+64 : i+64]
		m0 := hasZeroByte(binary.LittleEndian.Uint64(blk) ^ cdcAnchorWord)
		m1 := hasZeroByte(binary.LittleEndian.Uint64(blk[8:]) ^ cdcAnchorWord)
		m2 := hasZeroByte(binary.LittleEndian.Uint64(blk[16:]) ^ cdcAnchorWord)
		m3 := hasZeroByte(binary.LittleEndian.Uint64(blk[24:]) ^ cdcAnchorWord)
		if (m0|m1)|(m2|m3) != 0 {
			if m0 != 0 {
				if cut := c.verifyWord(data, i, m0); cut > 0 {
					return cut
				}
			}
			if m1 != 0 {
				if cut := c.verifyWord(data, i+8, m1); cut > 0 {
					return cut
				}
			}
			if m2 != 0 {
				if cut := c.verifyWord(data, i+16, m2); cut > 0 {
					return cut
				}
			}
			if m3 != 0 {
				if cut := c.verifyWord(data, i+24, m3); cut > 0 {
					return cut
				}
			}
		}
		m4 := hasZeroByte(binary.LittleEndian.Uint64(blk[32:]) ^ cdcAnchorWord)
		m5 := hasZeroByte(binary.LittleEndian.Uint64(blk[40:]) ^ cdcAnchorWord)
		m6 := hasZeroByte(binary.LittleEndian.Uint64(blk[48:]) ^ cdcAnchorWord)
		m7 := hasZeroByte(binary.LittleEndian.Uint64(blk[56:]) ^ cdcAnchorWord)
		if (m4|m5)|(m6|m7) != 0 {
			if m4 != 0 {
				if cut := c.verifyWord(data, i+32, m4); cut > 0 {
					return cut
				}
			}
			if m5 != 0 {
				if cut := c.verifyWord(data, i+40, m5); cut > 0 {
					return cut
				}
			}
			if m6 != 0 {
				if cut := c.verifyWord(data, i+48, m6); cut > 0 {
					return cut
				}
			}
			if m7 != 0 {
				if cut := c.verifyWord(data, i+56, m7); cut > 0 {
					return cut
				}
			}
		}
		i += 64
	}
	for i+8 <= limit {
		m := hasZeroByte(binary.LittleEndian.Uint64(data[i:]) ^ cdcAnchorWord)
		if m != 0 {
			if cut := c.verifyWord(data, i, m); cut > 0 {
				return cut
			}
		}
		i += 8
	}
	for ; i < limit; i++ {
		if data[i] == cdcAnchor && c.confirm(data, i) {
			return i + 1
		}
	}
	return limit
}

// verifyWord checks the candidate positions a detector word flagged, in
// ascending order. The detector's higher lanes can be false positives,
// so each lane re-verifies the anchor before recomputing the hash.
// Returns the chunk length, or 0 if no flagged position is a boundary.
func (c *CDC) verifyWord(data []byte, i int, m uint64) int {
	for m != 0 {
		j := i + bits.TrailingZeros64(m)>>3
		if data[j] == cdcAnchor && c.confirm(data, j) {
			return j + 1
		}
		m &= m - 1
	}
	return 0
}

// nextCutReference is the retained scalar reference: the canonical
// byte-at-a-time gear loop, and the executable specification of the
// boundary rule. The rolling state must be warm before the first
// candidate, so it pays the table-fold on every byte from the chunk
// start. The fast path must produce byte-identical cuts.
func (c *CDC) nextCutReference(data []byte) int {
	n := len(data)
	if n <= c.Min {
		return n
	}
	limit := c.Max
	if n < limit {
		limit = n
	}
	var h uint64
	for i := 0; i < limit; i++ {
		h = h<<1 ^ c.table[data[i]]
		if i >= c.Min && h&c.mask == c.mask {
			return i + 1
		}
	}
	return limit
}

// AppendBoundaries appends the chunk boundary offsets for data to dst
// and returns the extended slice. Offsets are end offsets of each
// chunk; the final offset equals len(data). Empty input appends
// nothing. Callers that recycle dst across calls (dst[:0]) get a
// zero-allocation steady state.
func (c *CDC) AppendBoundaries(dst []int, data []byte) []int {
	start := 0
	for start < len(data) {
		start += c.nextCut(data[start:])
		dst = append(dst, start)
	}
	return dst
}

// Boundaries returns the chunk boundary offsets for data. The returned
// slice contains end offsets of each chunk; the final offset equals
// len(data). Empty input yields no boundaries.
func (c *CDC) Boundaries(data []byte) []int {
	return c.AppendBoundaries(nil, data)
}

// ReferenceBoundaries is Boundaries computed by the retained scalar
// reference implementation. It exists as the executable specification
// the fast path is tested against, and as the "scalar byte-at-a-time"
// baseline in BenchmarkCDCBoundaries.
func (c *CDC) ReferenceBoundaries(dst []int, data []byte) []int {
	start := 0
	for start < len(data) {
		start += c.nextCutReference(data[start:])
		dst = append(dst, start)
	}
	return dst
}

// Split splits the stream segment data, which begins at absolute stream
// byte offset, into variable-size chunks. Each chunk's LBA is its
// extent address — offset plus the chunk's byte position in data — so
// multiple Split calls against the same store never collide as long as
// their segments occupy distinct stream ranges (see Chunk).
func (c *CDC) Split(offset uint64, data []byte) []Chunk {
	bounds := c.Boundaries(data)
	chunks := make([]Chunk, 0, len(bounds))
	prev := 0
	for _, b := range bounds {
		chunks = append(chunks, Chunk{LBA: offset + uint64(prev), Data: data[prev:b]})
		prev = b
	}
	return chunks
}
