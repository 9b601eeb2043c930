package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fidr/internal/hostmodel"
	"fidr/internal/ssd"
	"fidr/internal/tablecache"
)

// diffOps is the length of each differential stream.
const diffOps = 3000

// diffView is what one architecture leaves behind that the data plane
// decides, and so must not depend on where the table work runs: the result
// of every read, the dedup and compression outcome counts, the batch count,
// the LBA->PBN map, the data SSD's container bytes, and the table traffic:
// the table cache's counts and the table SSD's IOs, which only the same
// table operations in the same order reproduce. Read-path source counts,
// memory paths, PCIe bytes and predictor counters are left out: those are
// what the architectures differ in.
type diffView struct {
	reads      []string
	counts     diffCounts
	tables     diffTables
	mappings   string
	containers string
}

// diffCounts are the dedup and compression outcome counts of a diffView.
type diffCounts struct {
	dups, uniques, stored, compSaved, batches uint64
	reduction                                 float64
}

// diffTables is a diffView's table traffic; the table SSD's BusyDuration
// is zeroed, leaving its IO and byte counts.
type diffTables struct {
	cache tablecache.Stats
	ssd   ssd.Stats
}

// diffRun drives one seeded stream of writes (overwrites and duplicates,
// in-batch ones included), reads, Compact, Flush and Checkpoint through a
// durable server of arch and returns its view.
func diffRun(t *testing.T, mode testMode, arch Arch, lanes int, seed int64) diffView {
	t.Helper()
	tssd, dssd := walTestDevices()
	w, err := NewWAL(NewMemWALDevice())
	if err != nil {
		t.Fatal(err)
	}
	cfg := walTestConfig(arch, tssd, dssd, w)
	cfg.Chunking = mode.chunking
	cfg.HashLanes, cfg.CompressLanes = lanes, lanes
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var v diffView
	for op := 0; op < diffOps; op++ {
		slot := uint64(rng.Intn(200))
		switch r := rng.Intn(100); {
		case r < 60:
			// Few seeds: batches repeat chunks of earlier batches and of
			// their own.
			if err := s.Write(mode.addr(slot), mode.payload(uint64(rng.Intn(90)))); err != nil {
				t.Fatalf("op %d: write: %v", op, err)
			}
		case r < 97:
			got, err := s.Read(mode.addr(slot))
			switch {
			case err == ErrNotFound:
				v.reads = append(v.reads, "not found")
			case err != nil:
				t.Fatalf("op %d: read: %v", op, err)
			default:
				sum := sha256.Sum256(got)
				v.reads = append(v.reads, hex.EncodeToString(sum[:8]))
			}
		case r < 98:
			if _, err := s.Compact(0); err != nil {
				t.Fatalf("op %d: compact: %v", op, err)
			}
		case r < 99:
			if err := s.Flush(); err != nil {
				t.Fatalf("op %d: flush: %v", op, err)
			}
		default:
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("op %d: checkpoint: %v", op, err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	v.counts = diffCounts{st.DuplicateChunks, st.UniqueChunks, st.StoredBytes, st.CompressionSavedBytes,
		st.BatchesProcessed, st.ReductionRatio()}
	v.tables = diffTables{s.CacheStats(), s.TableSSDStats()}
	v.tables.ssd.BusyDuration = 0
	live := s.lba.Mappings()
	lbas := make([]uint64, 0, len(live))
	for lba := range live {
		lbas = append(lbas, lba)
	}
	slices.Sort(lbas)
	var b strings.Builder
	for _, lba := range lbas {
		fmt.Fprintf(&b, "%d>%d ", lba, live[lba])
	}
	v.mappings = b.String()
	h := sha256.New()
	digestImage(t, h, dssd, (s.lba.NextContainer()+1)*uint64(cfg.ContainerSize))
	v.containers = hex.EncodeToString(h.Sum(nil))
	return v
}

// TestArchDifferential runs one seeded stream through the three
// architectures, which differ only in where the table work runs, and
// requires the data plane to agree: every read, the dedup and compression
// counts, the reduction ratio, the batch count, the table cache's and table
// SSD's traffic, the LBA->PBN map and the data SSD's containers. Fixed and
// CDC chunking, at 1 and 2 lanes.
func TestArchDifferential(t *testing.T) {
	for _, mode := range testModes {
		for _, lanes := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/lanes%d", mode.name, lanes), func(t *testing.T) {
				want := diffRun(t, mode, Baseline, lanes, 46)
				if want.counts.dups == 0 || want.counts.uniques == 0 || len(want.reads) == 0 {
					t.Fatalf("stream exercised too little: %+v, %d reads", want.counts, len(want.reads))
				}
				for _, arch := range []Arch{FIDRNicP2P, FIDRFull} {
					got := diffRun(t, mode, arch, lanes, 46)
					for i := range min(len(got.reads), len(want.reads)) {
						if got.reads[i] != want.reads[i] {
							t.Fatalf("%s: read %d returned %s, baseline %s", arch, i, got.reads[i], want.reads[i])
						}
					}
					if len(got.reads) != len(want.reads) {
						t.Fatalf("%s: %d reads, baseline %d", arch, len(got.reads), len(want.reads))
					}
					if got.mappings != want.mappings {
						t.Errorf("%s: the LBA->PBN map differs from the baseline's", arch)
					}
					if got.containers != want.containers {
						t.Errorf("%s: data-SSD containers %s, baseline %s", arch, got.containers, want.containers)
					}
					if got.counts != want.counts {
						t.Errorf("%s: %+v, baseline %+v", arch, got.counts, want.counts)
					}
					if got.tables != want.tables {
						t.Errorf("%s: table traffic %+v, baseline %+v", arch, got.tables, want.tables)
					}
				}
			})
		}
	}
}

// TestArchDifferentialLBATableCharge: on a write-only stream, overwrites
// and in-batch duplicates included, every architecture charges the host
// one LBA-table op per chunk, so the three ledgers' LBA-table CPU agrees.
func TestArchDifferentialLBATableCharge(t *testing.T) {
	for _, mode := range testModes {
		t.Run(mode.name, func(t *testing.T) {
			var want uint64
			for _, arch := range []Arch{Baseline, FIDRNicP2P, FIDRFull} {
				tssd, dssd := walTestDevices()
				cfg := walTestConfig(arch, tssd, dssd, nil)
				cfg.Chunking = mode.chunking
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(46))
				for op := 0; op < diffOps/2; op++ {
					if err := s.Write(mode.addr(uint64(rng.Intn(200))), mode.payload(uint64(rng.Intn(90)))); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				got := s.Ledger().Snapshot().CPUNanos[hostmodel.CompLBATable]
				switch {
				case got == 0:
					t.Fatalf("%s charged no LBA-table CPU", arch)
				case arch == Baseline:
					want = got
				case got != want:
					t.Errorf("%s charged %v ns of LBA-table CPU, baseline %v", arch, got, want)
				}
			}
		})
	}
}
