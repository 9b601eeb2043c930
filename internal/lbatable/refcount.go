package lbatable

import "fmt"

// Reference counting and relocation support for garbage collection.
//
// Inline deduplication creates many-to-one LBA->PBN mappings; overwrites
// and re-deduplication drop references, leaving dead compressed chunks
// inside sealed containers. The paper does not describe its cleaning
// policy (enterprise systems all have one), so this extension adds the
// standard design: a per-PBN reference count maintained by the mapping
// operations, per-container dead-byte accounting to pick compaction
// victims, and PBN relocation so compaction can move live chunks without
// changing their identity (the Hash-PBN table keys stay valid).
//
// Relocations are kept in a sparse overlay so the common case retains the
// paper's compact 4-byte level-2 entries.

// pbnLoc is an overlay location for a relocated PBN.
type pbnLoc struct {
	container   uint64
	offsetUnits uint16
}

// refsInit lazily sizes the refcount slice.
func (t *Table) refsInit() {
	for len(t.refs) < len(t.entries) {
		t.refs = append(t.refs, 0)
	}
}

// decRef decrements pbn's count, recording dead bytes when it hits zero.
func (t *Table) decRef(pbn uint64) {
	t.refsInit()
	if t.refs[pbn] == 0 {
		// Defensive: double-free indicates a caller bug.
		panic(fmt.Sprintf("lbatable: refcount underflow for PBN %d", pbn))
	}
	t.refs[pbn]--
	if t.refs[pbn] == 0 {
		loc := t.locate(pbn)
		if t.deadBytes == nil {
			t.deadBytes = make(map[uint64]uint64)
		}
		t.deadBytes[loc.container] += uint64(t.entries[pbn].csize)
		t.deadTotal += uint64(t.entries[pbn].csize)
	}
}

// reviveRef handles a duplicate write that references a currently dead
// chunk (refcount 0 but not yet compacted): the dead-byte accounting is
// rolled back.
func (t *Table) reviveRef(pbn uint64) {
	loc := t.locate(pbn)
	dead := t.deadBytes[loc.container]
	size := uint64(t.entries[pbn].csize)
	if dead >= size {
		t.deadBytes[loc.container] = dead - size
		t.deadTotal -= size
	}
}

// locate resolves a PBN's physical placement, honouring relocations.
func (t *Table) locate(pbn uint64) pbnLoc {
	if loc, ok := t.relocated[pbn]; ok {
		return loc
	}
	i := containerIndex(t.startPBN, pbn)
	return pbnLoc{container: uint64(i), offsetUnits: t.entries[pbn].offsetUnits}
}

// Mappings returns a copy of the current LBA -> PBN map (snapshot
// creation reads the live volume's mapping atomically).
func (t *Table) Mappings() map[uint64]uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[uint64]uint64, len(t.lbaToPBN))
	for lba, pbn := range t.lbaToPBN {
		out[lba] = pbn
	}
	return out
}

// Retain adds an external reference to pbn (snapshots hold references so
// their chunks survive live-volume overwrites and compaction).
func (t *Table) Retain(pbn uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pbn >= uint64(len(t.entries)) {
		return fmt.Errorf("lbatable: PBN %d not allocated", pbn)
	}
	t.refsInit()
	if t.refs[pbn] == 0 {
		t.reviveRef(pbn)
	}
	t.refs[pbn]++
	return nil
}

// Release drops an external reference to pbn.
func (t *Table) Release(pbn uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pbn >= uint64(len(t.entries)) {
		return fmt.Errorf("lbatable: PBN %d not allocated", pbn)
	}
	t.decRef(pbn)
	return nil
}

// RefCount returns pbn's current reference count.
func (t *Table) RefCount(pbn uint64) (uint32, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if pbn >= uint64(len(t.entries)) {
		return 0, fmt.Errorf("lbatable: PBN %d not allocated", pbn)
	}
	t.refsInit()
	return t.refs[pbn], nil
}

// DeadBytes returns the dead compressed bytes recorded per container.
func (t *Table) DeadBytes() map[uint64]uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[uint64]uint64, len(t.deadBytes))
	for c, b := range t.deadBytes {
		if b > 0 {
			out[c] = b
		}
	}
	return out
}

// TotalDeadBytes returns the sum of DeadBytes() without building the map.
func (t *Table) TotalDeadBytes() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.deadTotal
}

// DeadBytesIn returns the dead compressed bytes recorded for container c.
func (t *Table) DeadBytesIn(c uint64) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.deadBytes[c]
}

// LiveChunks returns the PBNs with nonzero references located in the
// given container, in ascending PBN order.
func (t *Table) LiveChunks(container uint64) []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.refsInit()
	var out []uint64
	for pbn := range t.entries {
		p := uint64(pbn)
		if t.refs[p] == 0 {
			continue
		}
		if t.locate(p).container == container {
			out = append(out, p)
		}
	}
	return out
}

// DeadChunks returns the zero-reference PBNs located in container.
func (t *Table) DeadChunks(container uint64) []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.refsInit()
	var out []uint64
	for pbn := range t.entries {
		p := uint64(pbn)
		if t.refs[p] != 0 {
			continue
		}
		if t.locate(p).container == container {
			out = append(out, p)
		}
	}
	return out
}

// Relocate moves pbn to a new physical placement (compaction). The PBN —
// and therefore every LBA mapping and Hash-PBN entry referring to it —
// stays valid. The old container's dead accounting is not touched; the
// caller retires whole containers after moving their live chunks out.
func (t *Table) Relocate(pbn, newContainer uint64, newOff uint32) error {
	if newOff%OffsetUnit != 0 {
		return fmt.Errorf("lbatable: offset %d not %d-byte aligned", newOff, OffsetUnit)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if pbn >= uint64(len(t.entries)) {
		return fmt.Errorf("lbatable: PBN %d not allocated", pbn)
	}
	if int(newOff)+int(t.entries[pbn].csize) > t.containerSize {
		return fmt.Errorf("lbatable: relocation target [%d,+%d) exceeds container", newOff, t.entries[pbn].csize)
	}
	if t.relocated == nil {
		t.relocated = make(map[uint64]pbnLoc)
	}
	t.relocated[pbn] = pbnLoc{container: newContainer, offsetUnits: uint16(newOff / OffsetUnit)}
	if newContainer+1 > t.frontier {
		t.frontier = newContainer + 1
	}
	return nil
}

// RetireContainer clears the dead-byte accounting for a fully compacted
// container (its space is reusable by the data SSD layer) and marks it
// retired so usage reporting counts its remaining dead-located chunks
// as reclaimed rather than garbage.
func (t *Table) RetireContainer(container uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deadTotal -= t.deadBytes[container]
	delete(t.deadBytes, container)
	if t.retired == nil {
		t.retired = make(map[uint64]struct{})
	}
	t.retired[container] = struct{}{}
}

// RetiredContainers returns the number of GC-retired containers.
func (t *Table) RetiredContainers() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.retired)
}
