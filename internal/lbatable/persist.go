package lbatable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary serialization of the LBA-PBA metadata for checkpointing. The
// Hash-PBN table is already durable on the table SSDs (write-back cache);
// the LBA-PBA mapping is the volatile half of the metadata, so servers
// checkpoint it to a reserved table-SSD region (core.Checkpoint).
//
// Format (little endian, versioned):
//
//	magic "FIDRLBA2"
//	u32 containerSize
//	u64 #entries, then per entry: u16 offsetUnits, u16 csize,
//	    u16 uncompressed length, u32 refs
//	u64 #containers, then u64 startPBN each
//	u64 #lbaMappings, then u64 lba, u64 pbn each
//	u64 #relocations, then u64 pbn, u64 container, u16 offsetUnits each
//	u64 #deadContainers, then u64 container, u64 deadBytes each
//	u64 #retiredContainers, then u64 container each (optional trailing
//	    section; snapshots written before it exist end at the dead list)
//
// "FIDRLBA1" snapshots have no length field in their entries. They are
// refused rather than guessed at: the error names the old format, and
// core reports it as a corrupt checkpoint.

var (
	lbaMagic   = [8]byte{'F', 'I', 'D', 'R', 'L', 'B', 'A', '2'}
	lbaMagicV1 = [8]byte{'F', 'I', 'D', 'R', 'L', 'B', 'A', '1'}
)

// Snapshot serializes the table.
func (t *Table) Snapshot() []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.refsInit()
	var buf bytes.Buffer
	buf.Write(lbaMagic[:])
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	w(uint32(t.containerSize))
	w(uint64(len(t.entries)))
	for i, e := range t.entries {
		w(e.offsetUnits)
		w(e.csize)
		w(e.raw)
		w(t.refs[i])
	}
	w(uint64(len(t.startPBN)))
	for _, s := range t.startPBN {
		w(s)
	}
	w(uint64(len(t.lbaToPBN)))
	for lba, pbn := range t.lbaToPBN {
		w(lba)
		w(pbn)
	}
	w(uint64(len(t.relocated)))
	for pbn, loc := range t.relocated {
		w(pbn)
		w(loc.container)
		w(loc.offsetUnits)
	}
	w(uint64(len(t.deadBytes)))
	for c, b := range t.deadBytes {
		w(c)
		w(b)
	}
	// Optional trailing section (absent in older snapshots): GC-retired
	// containers, so usage reporting survives a checkpoint/restore.
	w(uint64(len(t.retired)))
	for c := range t.retired {
		w(c)
	}
	return buf.Bytes()
}

// RestoreTable deserializes a Snapshot into a fresh table.
func RestoreTable(data []byte) (*Table, error) {
	r := bytes.NewReader(data)
	var magic [8]byte
	if _, err := r.Read(magic[:]); err != nil || magic != lbaMagic {
		if magic == lbaMagicV1 {
			return nil, fmt.Errorf("lbatable: snapshot format %s records no per-chunk uncompressed length", magic[:])
		}
		return nil, fmt.Errorf("lbatable: bad snapshot magic")
	}
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var csize uint32
	if err := rd(&csize); err != nil {
		return nil, fmt.Errorf("lbatable: snapshot truncated: %w", err)
	}
	t, err := New(int(csize))
	if err != nil {
		return nil, err
	}
	// count reads a list length and refuses one the remaining bytes
	// cannot hold at size bytes per element, so a corrupt length can
	// never size an allocation.
	var n uint64
	count := func(what string, size int) error {
		if err := rd(&n); err != nil || n > uint64(r.Len()/size) {
			return fmt.Errorf("lbatable: %s list invalid", what)
		}
		return nil
	}
	if err := count("entry", 10); err != nil {
		return nil, err
	}
	t.entries = make([]pbnEntry, n)
	t.refs = make([]uint32, n)
	for i := range t.entries {
		if err := rd(&t.entries[i].offsetUnits); err != nil {
			return nil, fmt.Errorf("lbatable: entries truncated: %w", err)
		}
		if err := rd(&t.entries[i].csize); err != nil {
			return nil, fmt.Errorf("lbatable: entries truncated: %w", err)
		}
		if err := rd(&t.entries[i].raw); err != nil {
			return nil, fmt.Errorf("lbatable: entries truncated: %w", err)
		}
		if err := rd(&t.refs[i]); err != nil {
			return nil, fmt.Errorf("lbatable: refs truncated: %w", err)
		}
	}
	if err := count("container", 8); err != nil {
		return nil, err
	}
	t.startPBN = make([]uint64, n)
	for i := range t.startPBN {
		if err := rd(&t.startPBN[i]); err != nil {
			return nil, fmt.Errorf("lbatable: containers truncated: %w", err)
		}
	}
	if err := count("mapping", 16); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		var lba, pbn uint64
		if err := rd(&lba); err != nil {
			return nil, fmt.Errorf("lbatable: mappings truncated: %w", err)
		}
		if err := rd(&pbn); err != nil {
			return nil, fmt.Errorf("lbatable: mappings truncated: %w", err)
		}
		t.lbaToPBN[lba] = pbn
	}
	if err := count("relocation", 18); err != nil {
		return nil, err
	}
	if n > 0 {
		t.relocated = make(map[uint64]pbnLoc, n)
	}
	for i := uint64(0); i < n; i++ {
		var pbn, container uint64
		var off uint16
		if err := rd(&pbn); err != nil {
			return nil, fmt.Errorf("lbatable: relocations truncated: %w", err)
		}
		if err := rd(&container); err != nil {
			return nil, fmt.Errorf("lbatable: relocations truncated: %w", err)
		}
		if err := rd(&off); err != nil {
			return nil, fmt.Errorf("lbatable: relocations truncated: %w", err)
		}
		t.relocated[pbn] = pbnLoc{container: container, offsetUnits: off}
		if container+1 > t.frontier {
			t.frontier = container + 1
		}
	}
	if err := count("dead", 16); err != nil {
		return nil, err
	}
	if n > 0 {
		t.deadBytes = make(map[uint64]uint64, n)
	}
	for i := uint64(0); i < n; i++ {
		var c, b uint64
		if err := rd(&c); err != nil {
			return nil, fmt.Errorf("lbatable: dead bytes truncated: %w", err)
		}
		if err := rd(&b); err != nil {
			return nil, fmt.Errorf("lbatable: dead bytes truncated: %w", err)
		}
		t.deadTotal += b - t.deadBytes[c] // a repeated container replaces its entry
		t.deadBytes[c] = b
	}
	// Optional retired-container section: absent in older snapshots, so
	// a clean EOF here is valid; a half-written section is not.
	if err := rd(&n); err != nil {
		if errors.Is(err, io.EOF) {
			return t, nil
		}
		return nil, fmt.Errorf("lbatable: retired list truncated: %w", err)
	}
	if n > uint64(r.Len()/8) {
		return nil, fmt.Errorf("lbatable: retired list invalid")
	}
	if n > 0 {
		t.retired = make(map[uint64]struct{}, n)
	}
	for i := uint64(0); i < n; i++ {
		var c uint64
		if err := rd(&c); err != nil {
			return nil, fmt.Errorf("lbatable: retired list truncated: %w", err)
		}
		t.retired[c] = struct{}{}
	}
	return t, nil
}

// NextContainer returns the container index that should be allocated
// next after restore (one past the highest seen, counting containers
// that hold only relocated chunks).
func (t *Table) NextContainer() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.frontier > uint64(len(t.startPBN)) {
		return t.frontier
	}
	return uint64(len(t.startPBN))
}
