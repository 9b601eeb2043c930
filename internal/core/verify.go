package core

import (
	"cmp"
	"fmt"
	"slices"

	"fidr/internal/fingerprint"
)

// Offline consistency checking (extension): the dedup metadata forms a
// web of invariants — LBA mappings point at allocated PBNs, stored chunk
// contents hash to the fingerprints the Hash-PBN table indexes them
// under, and every chunk's reference count equals the number of LBA and
// snapshot mappings holding it. Verify walks all of it, like a
// filesystem's fsck, and reports violations instead of panicking:
// corruption is data, not a bug.

// VerifyReport summarizes a consistency pass.
type VerifyReport struct {
	ChunksChecked   uint64
	MappingsChecked uint64
	// Problems lists human-readable violations; empty means consistent.
	Problems []string
}

// OK reports whether the volume is fully consistent.
func (r VerifyReport) OK() bool { return len(r.Problems) == 0 }

func (r *VerifyReport) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Verify checks the volume's metadata/data invariants. It flushes
// pending state first so the check covers everything. Read-only
// otherwise.
func (s *Server) Verify() (VerifyReport, error) {
	var rep VerifyReport
	if err := s.Flush(); err != nil {
		return rep, err
	}
	tr := s.obs.begin("verify", 0)
	defer tr.done()

	// Invariant 1: every live mapping resolves, and the stored bytes
	// decompress and hash to the recorded fingerprint.
	checkMapping := func(origin string, lba, pbn uint64) {
		rep.MappingsChecked++
		pba, err := s.lba.Resolve(pbn)
		if err != nil {
			rep.problemf("%s lba %d -> pbn %d: %v", origin, lba, pbn, err)
			return
		}
		cdata, _, err := s.fetchCompressed(pba, tr)
		if err != nil {
			rep.problemf("%s lba %d: fetch: %v", origin, lba, err)
			return
		}
		from := tr.start()
		data, err := s.decomp.Decompress(cdata, int(pba.RawSize))
		if err != nil {
			rep.problemf("%s lba %d: decompress: %v", origin, lba, err)
			return
		}
		tr.span(StageDecompress, from)
		fp, ok := s.fpOf(pbn)
		if !ok {
			rep.problemf("%s lba %d: no fingerprint recorded for pbn %d", origin, lba, pbn)
			return
		}
		from = tr.start()
		rehash := fingerprint.Of(data)
		tr.span(StageHash, from)
		if rehash != fp {
			rep.problemf("%s lba %d: content hash mismatch for pbn %d (stored data corrupted)", origin, lba, pbn)
		}
	}
	// Mappings are walked in address order, snapshots in ID order, and
	// holders counted per PBN, so the table-cache traffic and the order
	// of Problems are the same on every run.
	holders := make([]uint32, s.lba.Chunks())
	walk := func(origin string, mappings map[uint64]uint64) {
		for _, lba := range sortedKeys(mappings) {
			pbn := mappings[lba]
			checkMapping(origin, lba, pbn)
			if pbn < uint64(len(holders)) {
				holders[pbn]++
			}
		}
	}
	walk("live", s.lba.Mappings())
	for _, id := range s.Snapshots() {
		walk(fmt.Sprintf("snapshot %d", id), s.snapshots[id].mappings)
	}

	// Invariant 2: reference counts equal the number of holders.
	for pbn := uint64(0); pbn < s.lba.Chunks(); pbn++ {
		rep.ChunksChecked++
		rc, err := s.lba.RefCount(pbn)
		if err != nil {
			rep.problemf("pbn %d: %v", pbn, err)
			continue
		}
		if rc != holders[pbn] {
			rep.problemf("pbn %d: refcount %d but %d holders", pbn, rc, holders[pbn])
		}
	}

	// Invariant 3: the Hash-PBN table agrees — every referenced chunk's
	// fingerprint must look up to that chunk.
	for pbn, n := range holders {
		pbn := uint64(pbn)
		if n == 0 {
			continue
		}
		fp, ok := s.fpOf(pbn)
		if !ok {
			continue // already reported above
		}
		found, present, err := s.cache.Lookup(fp)
		if err != nil {
			rep.problemf("pbn %d: table lookup: %v", pbn, err)
			continue
		}
		if !present {
			rep.problemf("pbn %d: fingerprint missing from Hash-PBN table", pbn)
		} else if found != pbn {
			rep.problemf("pbn %d: Hash-PBN table maps its fingerprint to pbn %d", pbn, found)
		}
	}

	// Invariant 4: no stale Hash-PBN entries — the full table must not
	// index chunks the metadata does not know about. A crash can leave
	// these behind (write-back bucket evictions outrun the checkpoint);
	// left in place they silently dedup new writes onto wrong chunks.
	if err := s.cache.Range(func(fp fingerprint.FP, pbn uint64) {
		if pbn >= s.lba.Chunks() || pbn >= uint64(len(s.pbnFP)) || s.pbnFP[pbn] != fp {
			rep.problemf("stale Hash-PBN entry: fingerprint %x -> pbn %d (allocated chunks: %d)",
				fp[:4], pbn, s.lba.Chunks())
		}
	}); err != nil {
		return rep, err
	}

	// Invariant 5: container index — no orphaned container data beyond
	// the allocation frontier. A crash between a container's data write
	// and its metadata commit leaves such orphans.
	open := s.comp.OpenContainer()
	csize := uint64(s.cfg.ContainerSize)
	for c := open; c < open+orphanScanWindow; c++ {
		off := c * csize
		if off+csize > s.dataSSD.Config().CapacityBytes {
			break
		}
		data, err := s.dataSSD.Read(off, s.cfg.ContainerSize)
		if err != nil {
			return rep, err
		}
		if allZero(data) {
			break
		}
		rep.problemf("container %d: orphaned data on data SSD beyond allocation frontier %d", c, open)
	}
	return rep, nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
