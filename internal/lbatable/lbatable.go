// Package lbatable implements the LBA-PBA metadata (§2.1.4): the two-level
// mapping from a client's logical block address to the physical location
// of its (compressed) chunk inside a container on the data SSDs.
//
// Level 1 maps LBA -> PBN (physical block number: a sequential id assigned
// to each unique stored chunk). Level 2 maps PBN -> (offset inside its
// container, compressed size). Containers are large fixed-size blocks
// (4 MiB by default) of concatenated compressed chunks, written to the
// data SSDs as single sequential writes. The physical byte address is
// computed as container*containerSize + offset.
//
// Entry sizes follow the paper: the PBN is 48-bit; offset and compressed
// size are 16-bit each, with offsets expressed in 64-byte units so a
// 16-bit offset spans a 4-MiB container. The level-2 record also carries
// the chunk's uncompressed length (16 bits) — the paper's chunks are all
// 4 KB so it never needs one, but it is what makes a volume with
// variable-size chunks self-describing: reads, fsck and recovery learn
// how many bytes to decompress from the record, not from configuration.
package lbatable

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

const (
	// DefaultContainerSize is the paper's compressed-chunk container
	// size (the Compression Engine flush threshold, §5.3 step 8).
	DefaultContainerSize = 4 << 20
	// OffsetUnit is the alignment of chunks inside a container; 16-bit
	// stored offsets are in these units.
	OffsetUnit = 64
	// MaxCSize is the largest storable compressed chunk, and the largest
	// storable uncompressed length (both are 16-bit fields).
	MaxCSize = 1<<16 - 1
	// paperChunkSize is the uncompressed length AppendChunk records: the
	// paper's fixed 4-KB chunk.
	paperChunkSize = 4096
)

// PBA is a resolved physical address of a stored chunk.
type PBA struct {
	// Container is the container index on the data SSD array.
	Container uint64
	// Offset is the byte offset inside the container.
	Offset uint32
	// CSize is the compressed size in bytes.
	CSize uint32
	// RawSize is the uncompressed length in bytes.
	RawSize uint32
}

// ByteOffset returns the absolute byte address given the container size.
func (p PBA) ByteOffset(containerSize int) uint64 {
	return p.Container*uint64(containerSize) + uint64(p.Offset)
}

// pbnEntry is the compact level-2 record (paper: 2 B offset + 2 B size,
// plus the 2 B uncompressed length).
type pbnEntry struct {
	offsetUnits uint16
	csize       uint16
	raw         uint16
}

// Table is the two-level LBA-PBA mapping. Safe for concurrent use.
type Table struct {
	containerSize int

	mu sync.RWMutex
	// lbaToPBN is level 1. A sparse map stands in for the paper's flat
	// array; the resource model charges array semantics.
	lbaToPBN map[uint64]uint64
	// entries is level 2, indexed by PBN.
	entries []pbnEntry
	// containerOfPBN[i] is the container holding PBN range
	// [startPBN[i], startPBN[i+1]).
	startPBN []uint64

	// GC state (refcount.go): per-PBN reference counts, dead compressed
	// bytes per container, the sparse relocation overlay, and the set of
	// GC-retired containers (their dead chunks are reclaimed space, not
	// garbage — ContainerUsage must not re-count them).
	refs      []uint32
	deadBytes map[uint64]uint64
	// deadTotal is the maintained sum of deadBytes (read on every batch).
	deadTotal uint64
	relocated map[uint64]pbnLoc
	retired   map[uint64]struct{}

	// frontier is one past the highest container index seen via Relocate.
	// Compaction packs live chunks into containers that may never receive
	// an AppendChunk, so startPBN alone under-reports the allocation
	// frontier (and NextContainer would hand out a container that already
	// holds relocated data).
	frontier uint64
}

// New creates a Table for the given container size.
func New(containerSize int) (*Table, error) {
	if containerSize <= 0 || containerSize%OffsetUnit != 0 {
		return nil, fmt.Errorf("lbatable: container size %d must be a positive multiple of %d", containerSize, OffsetUnit)
	}
	if containerSize > OffsetUnit*(1<<16) {
		return nil, fmt.Errorf("lbatable: container size %d exceeds 16-bit offset reach %d", containerSize, OffsetUnit*(1<<16))
	}
	return &Table{
		containerSize: containerSize,
		lbaToPBN:      make(map[uint64]uint64),
	}, nil
}

// ContainerSize returns the configured container size.
func (t *Table) ContainerSize() int { return t.containerSize }

// ErrUnmapped is returned when an LBA has never been written.
var ErrUnmapped = errors.New("lbatable: LBA not mapped")

// MapLBA points lba at an existing PBN (duplicate-chunk path: only the
// LBA-PBA table is updated, §2.2). Reference counts follow the mapping:
// the previous chunk at lba loses a reference, the new one gains one.
func (t *Table) MapLBA(lba, pbn uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pbn >= uint64(len(t.entries)) {
		return fmt.Errorf("lbatable: PBN %d not allocated", pbn)
	}
	t.remapLocked(lba, pbn)
	return nil
}

// remapLocked points lba at pbn, maintaining reference counts. A mapping
// to a currently dead chunk (refcount 0, not yet compacted) revives it.
func (t *Table) remapLocked(lba, pbn uint64) {
	t.refsInit()
	if old, ok := t.lbaToPBN[lba]; ok {
		if old == pbn {
			return
		}
		t.decRef(old)
	}
	if t.refs[pbn] == 0 {
		// AppendChunk creates chunks with one reference, so a zero
		// count means the chunk died earlier; roll back its dead
		// accounting.
		t.reviveRef(pbn)
	}
	t.refs[pbn]++
	t.lbaToPBN[lba] = pbn
}

// AppendChunk is Append for a chunk of the paper's fixed 4-KB
// uncompressed length.
func (t *Table) AppendChunk(lba uint64, container uint64, off uint32, csize uint32) (pbn uint64, err error) {
	return t.Append(lba, PBA{Container: container, Offset: off, CSize: csize, RawSize: paperChunkSize})
}

// Append records a new unique chunk stored at: it allocates the next PBN
// inside at.Container, at byte offset at.Offset with compressed size
// at.CSize and uncompressed length at.RawSize, and maps lba to it.
// Offsets must be OffsetUnit-aligned and inside the container.
func (t *Table) Append(lba uint64, at PBA) (pbn uint64, err error) {
	container, off, csize := at.Container, at.Offset, at.CSize
	if off%OffsetUnit != 0 {
		return 0, fmt.Errorf("lbatable: offset %d not %d-byte aligned", off, OffsetUnit)
	}
	if int(off)+int(csize) > t.containerSize {
		return 0, fmt.Errorf("lbatable: chunk [%d,%d) exceeds container size %d", off, off+csize, t.containerSize)
	}
	if csize == 0 || csize > MaxCSize {
		return 0, fmt.Errorf("lbatable: invalid compressed size %d", csize)
	}
	if at.RawSize == 0 || at.RawSize > MaxCSize {
		return 0, fmt.Errorf("lbatable: invalid uncompressed length %d", at.RawSize)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pbn = uint64(len(t.entries))
	// Track container boundaries: PBNs are allocated in container order.
	// Containers between len(startPBN) and container hold only relocated
	// chunks (GC packs into containers that never see an append); pad
	// their start markers so the binary search in locate stays valid —
	// duplicate start values make the empty containers unreachable.
	if n := len(t.startPBN); n == 0 || uint64(n-1) != container {
		if uint64(len(t.startPBN)) > container {
			return 0, fmt.Errorf("lbatable: container %d appended out of order (next is %d)", container, len(t.startPBN))
		}
		for uint64(len(t.startPBN)) <= container {
			t.startPBN = append(t.startPBN, pbn)
		}
	}
	t.entries = append(t.entries, pbnEntry{
		offsetUnits: uint16(off / OffsetUnit),
		csize:       uint16(csize),
		raw:         uint16(at.RawSize),
	})
	// The new chunk is born with one reference: its own LBA mapping.
	t.refsInit()
	if old, ok := t.lbaToPBN[lba]; ok && old != pbn {
		t.decRef(old)
	}
	t.refs[pbn] = 1
	t.lbaToPBN[lba] = pbn
	return pbn, nil
}

// LookupLBA resolves an LBA to its PBN.
func (t *Table) LookupLBA(lba uint64) (uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pbn, ok := t.lbaToPBN[lba]
	if !ok {
		return 0, ErrUnmapped
	}
	return pbn, nil
}

// containerIndex finds the container whose PBN range covers pbn.
func containerIndex(startPBN []uint64, pbn uint64) int {
	return sort.Search(len(startPBN), func(i int) bool { return startPBN[i] > pbn }) - 1
}

// Resolve returns the physical address of a PBN, honouring relocations.
func (t *Table) Resolve(pbn uint64) (PBA, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if pbn >= uint64(len(t.entries)) {
		return PBA{}, fmt.Errorf("lbatable: PBN %d not allocated", pbn)
	}
	loc := t.locate(pbn)
	return PBA{
		Container: loc.container,
		Offset:    uint32(loc.offsetUnits) * OffsetUnit,
		CSize:     uint32(t.entries[pbn].csize),
		RawSize:   uint32(t.entries[pbn].raw),
	}, nil
}

// ResolveLBA combines LookupLBA and Resolve.
func (t *Table) ResolveLBA(lba uint64) (PBA, error) {
	pbn, err := t.LookupLBA(lba)
	if err != nil {
		return PBA{}, err
	}
	return t.Resolve(pbn)
}

// Chunks returns the number of allocated PBNs.
func (t *Table) Chunks() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return uint64(len(t.entries))
}

// MappedLBAs returns the number of mapped logical addresses.
func (t *Table) MappedLBAs() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.lbaToPBN)
}
