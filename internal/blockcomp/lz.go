package blockcomp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// LZ is a byte-oriented LZ77 compressor shaped like the greedy,
// entropy-stage-free matchers used in FPGA compression engines
// (Abdelfattah'14, Fowers'15 — the paper's references [2,16]): hash-table
// match search, 16-byte minimum useful match, 64-KB window, literal runs
// and (length, distance) copies encoded in a simple token stream.
//
// Token format:
//
//	0x00 lenVarint  <lit bytes>   literal run
//	0x01 lenVarint distVarint     copy run (length >= 4)
//
// The format favors decode simplicity over density, matching hardware
// implementations that decode one token per cycle.
//
// Stream contract: the token stream is a pure function of the input
// (first match per probe, probe step doubling through incompressible
// runs, backward catch-up, 16 384-slot table, every 7th position indexed
// inside a match), pinned by TestLZOutputGolden; the epoch-tagged table
// (lzState) and call history never change it, so lane count does not
// either. The decoder reads every stream an earlier kernel wrote: the
// greedy byte-by-byte scan's streams are kept in testdata and must decode
// byte-exact (TestLZDecodesParentStreams).
type LZ struct{}

// NewLZ returns the LZ compressor.
func NewLZ() *LZ { return &LZ{} }

// Name implements Compressor.
func (*LZ) Name() string { return "lz" }

const (
	lzMinMatch = 4
	lzWindow   = 1 << 16
	lzHashBits = 14

	lzSkipMisses = 16 // consecutive misses before the probe step doubles
	lzMaxStep    = 16 // the largest probe step, a power of two
)

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

// lzState is the pooled match table. A slot holds base + position and
// base advances by len(src) every call, so an earlier call's slots are
// below base and read as empty: the 64-KB table is cleared on first use
// and when base would wrap 32 bits, not once per 4-KB chunk. Each lane's
// call checks out its own state.
type lzState struct {
	table [1 << lzHashBits]uint32
	base  uint32 // 0 = never used
}

var lzStatePool = sync.Pool{New: func() any { return new(lzState) }}

// Compress implements Compressor.
func (z *LZ) Compress(src []byte) ([]byte, error) {
	return z.CompressAppend(nil, src)
}

// CompressAppend implements AppendCompressor: the token stream is
// appended to dst, so callers can recycle output buffers across chunks.
func (*LZ) CompressAppend(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		if dst == nil {
			dst = []byte{}
		}
		return dst, nil
	}
	st := lzStatePool.Get().(*lzState)
	dst = st.compress(dst, src)
	lzStatePool.Put(st)
	return dst, nil
}

// compress appends src's token stream to dst. Positions are 32-bit: the
// stream is a pure function of src below 2 GiB and still round-trips
// above (a wrapped slot names an earlier position, whose bytes are
// compared).
//
// The scan probes with a step that doubles after lzSkipMisses
// consecutive misses, up to lzMaxStep, and each probe lands on a
// multiple of its step: an incompressible run costs about one probe per
// 16 bytes, and since probes a multiple of a repeat's period apart see
// the same bytes, a repeat whose period divides 16 (the Shaper's tail)
// is found within 16 bytes of the first probe inside it. A match then
// extends backwards toward the last literal start, so a copy found late
// starts where a byte-by-byte scan would have found it.
func (st *lzState) compress(dst, src []byte) []byte {
	next := uint64(st.base) + uint64(len(src))
	if st.base == 0 || next > math.MaxUint32 {
		clear(st.table[:])
		st.base, next = 1, 1+uint64(len(src))
	}
	table, base := &st.table, st.base
	st.base = uint32(min(next, math.MaxUint32)) // saturated: the next call clears
	litStart, step, misses := 0, 1, 0
	for i := 0; i+lzMinMatch <= len(src); {
		v := binary.LittleEndian.Uint32(src[i:])
		h := lzHash(v)
		e := table[h]
		table[h] = base + uint32(i)
		cand := int(e - base)
		if e < base || i-cand >= lzWindow || binary.LittleEndian.Uint32(src[cand:]) != v {
			i = (i + step) &^ (step - 1)
			if misses++; misses == lzSkipMisses {
				step, misses = min(step<<1, lzMaxStep), 0
			}
			continue
		}
		length := lzMinMatch + lzMatchLen(src, cand+lzMinMatch, i+lzMinMatch)
		for i > litStart && cand > 0 && src[i-1] == src[cand-1] {
			i, cand, length = i-1, cand-1, length+1
		}
		dst = lzAppendLiterals(dst, src[litStart:i])
		dst = append(dst, 0x01)
		dst = binary.AppendUvarint(dst, uint64(length))
		dst = binary.AppendUvarint(dst, uint64(i-cand))
		// Index a few positions inside the match so later repeats are
		// found, then skip past it and probe byte by byte again.
		end := i + length
		for j := i + 1; j < end && j+lzMinMatch <= len(src); j += 7 {
			table[lzHash(binary.LittleEndian.Uint32(src[j:]))] = base + uint32(j)
		}
		i, litStart, step, misses = end, end, 1, 0
	}
	return lzAppendLiterals(dst, src[litStart:])
}

// lzMatchLen returns how many bytes src[a:] and src[b:] share before b
// runs off the end (a < b), eight at a time: the first differing byte is
// the lowest set byte of the XOR.
func lzMatchLen(src []byte, a, b int) int {
	n := 0
	for ; b+n+8 <= len(src); n += 8 {
		if x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// lzAppendLiterals appends run as one literal token (nothing if empty).
func lzAppendLiterals(dst, run []byte) []byte {
	if len(run) == 0 {
		return dst
	}
	dst = append(dst, 0x00)
	dst = binary.AppendUvarint(dst, uint64(len(run)))
	return append(dst, run...)
}

// Decompress implements Compressor.
func (*LZ) Decompress(src []byte, dstSize int) ([]byte, error) {
	if dstSize < 0 {
		return nil, fmt.Errorf("blockcomp: lz negative output size %d", dstSize)
	}
	dst := make([]byte, 0, dstSize)
	p := 0
	for p < len(src) {
		tok := src[p]
		p++
		switch tok {
		case 0x00:
			length, n := binary.Uvarint(src[p:])
			if n <= 0 {
				return nil, fmt.Errorf("blockcomp: lz bad literal length at %d", p)
			}
			p += n
			// Compare in uint64: a huge varint must not overflow int.
			if length > uint64(len(src)-p) {
				return nil, fmt.Errorf("blockcomp: lz literal run overflows input")
			}
			dst = append(dst, src[p:p+int(length)]...)
			p += int(length)
		case 0x01:
			length, n := binary.Uvarint(src[p:])
			if n <= 0 {
				return nil, fmt.Errorf("blockcomp: lz bad copy length at %d", p)
			}
			if length > uint64(dstSize) {
				return nil, fmt.Errorf("blockcomp: lz copy length %d exceeds output bound %d", length, dstSize)
			}
			p += n
			dist, n2 := binary.Uvarint(src[p:])
			if n2 <= 0 {
				return nil, fmt.Errorf("blockcomp: lz bad copy distance at %d", p)
			}
			p += n2
			if dist == 0 || dist > uint64(len(dst)) {
				return nil, fmt.Errorf("blockcomp: lz distance %d out of range (have %d)", dist, len(dst))
			}
			at, n := len(dst), int(length)
			if n > dstSize-at {
				return nil, fmt.Errorf("blockcomp: lz output exceeds expected %d", dstSize)
			}
			dst = dst[:at+n]
			// A copy longer than its distance overlaps itself (the RLE
			// case): seed one period, then double what is there.
			for done := copy(dst[at:], dst[at-int(dist):at]); done < n; {
				done += copy(dst[at+done:], dst[at:at+done])
			}
		default:
			return nil, fmt.Errorf("blockcomp: lz unknown token 0x%02x at %d", tok, p-1)
		}
		if len(dst) > dstSize {
			return nil, fmt.Errorf("blockcomp: lz output exceeds expected %d", dstSize)
		}
	}
	if len(dst) != dstSize {
		return nil, fmt.Errorf("blockcomp: lz output %d bytes, expected %d", len(dst), dstSize)
	}
	return dst, nil
}
