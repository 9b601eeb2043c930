package fidr_test

// Crash-recovery harness (durability issue): deterministic, seedable
// crash injection at named pipeline stages, under concurrent multi-lane
// writes through the async front-end. Every cycle kills the server at an
// armed crash point, reopens the devices, recovers via checkpoint + WAL
// replay, and holds recovery to the fsck invariants plus a per-extent
// value oracle. Every stage runs in both chunking modes: fixed 4-KB
// chunks at chunk indexes, and CDC, where each write is a multi-KB stream
// segment the server cuts into extents. Run with -race; the harness is
// the regression net for the WAL's commit-ordering rules.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fidr"
	"fidr/internal/chunk"
	"fidr/internal/core"
	"fidr/internal/ssd"
)

// crashCfg sizes a server small enough that containers seal, cache lines
// evict and checkpoints stay cheap within a few hundred writes.
func crashCfg(arch fidr.Arch, tssd, dssd *ssd.SSD, w *core.WAL) fidr.Config {
	cfg := fidr.DefaultConfig(arch)
	cfg.ContainerSize = 32 << 10
	cfg.UniqueChunkCapacity = 1 << 12
	cfg.CacheLines = 32
	cfg.BatchChunks = 8
	cfg.HashLanes = 2
	cfg.CompressLanes = 2
	cfg.TableSSD = tssd
	cfg.DataSSD = dssd
	cfg.WAL = w
	return cfg
}

func crashDevices() (*ssd.SSD, *ssd.SSD) {
	tssd := ssd.MustNew(ssd.Config{Name: "tssd", CapacityBytes: 1 << 28, PageSize: 4096,
		ReadBW: 3.5e9, WriteBW: 2.7e9})
	dssd := ssd.MustNew(ssd.Config{Name: "dssd", CapacityBytes: 1 << 28, PageSize: 4096,
		ReadBW: 3.5e9, WriteBW: 2.7e9})
	return tssd, dssd
}

// crashMode is the chunking mode as an input to the crash cycle: how a
// slot is addressed, what a content seed's payload is, and which extents
// a write of it leaves behind. Fixed: slot = chunk index, one 4-KB chunk,
// one extent. CDC: a ragged multi-KB stream segment at byte offset
// slot<<20 (neighbouring seeds share 4-KB blocks), cut client-side by the
// same chunker configuration the server runs.
type crashMode struct {
	name     string
	chunking chunk.Config
}

var crashModes = []crashMode{
	{name: "fixed", chunking: chunk.Fixed(4096)},
	{name: "cdc", chunking: chunk.Config{Min: 1024, Avg: 4096, Max: 16384}},
}

func (m crashMode) addr(slot uint64) uint64 {
	if m.chunking.Unit() == 1 {
		return slot << 20
	}
	return slot
}

func (m crashMode) payload(seed uint64) []byte {
	if m.chunking.Unit() != 1 {
		return fidr.MakeChunk(seed, 0.5)
	}
	var out []byte
	for k := uint64(0); k < 2+seed%4; k++ {
		out = append(out, fidr.MakeChunk(seed+k, 0.5)...)
	}
	return out[:len(out)-int(seed%7)*100]
}

// extent is one chunk a write leaves behind: its address and content.
type extent struct {
	addr uint64
	data []byte
}

func (m crashMode) extents(slot, seed uint64) []extent {
	c, err := m.chunking.NewChunker()
	if err != nil {
		panic(err)
	}
	data := m.payload(seed)
	var out []extent
	prev := 0
	for _, b := range c.Boundaries(data) {
		out = append(out, extent{m.addr(slot) + uint64(prev), data[prev:b]})
		prev = b
	}
	return out
}

// extentHistory records every content ever submitted at an extent address
// (interior extents of an overwritten CDC segment stay mapped, so they
// keep their history too); a recovered value must be one of them.
type extentHistory map[uint64][][]byte

func (h extentHistory) note(exts []extent) {
	for _, e := range exts {
		h[e.addr] = append(h[e.addr], e.data)
	}
}

func (h extentHistory) contains(addr uint64, data []byte) bool {
	for _, d := range h[addr] {
		if bytes.Equal(data, d) {
			return true
		}
	}
	return false
}

// TestCrashRecoveryRandomized is the heart of the durability PR: for
// each pipeline stage, dozens of seeded cycles arm a crash at a random
// hit count, run concurrent submitters over the async front-end until
// the server dies, then recover from the surviving devices and check
//
//   - Verify() holds every fsck invariant (refcounts, LBA map,
//     container index, stale table entries, orphaned containers);
//   - the pre-crash durable floor (drained + flushed phase-1 writes)
//     reads back, every extent, a value from its write history;
//   - any other readable extent returns a value from its write history
//     (never invented or cross-wired data);
//   - the dedup domain survived: re-writing durable content stores no
//     new unique chunk.
func TestCrashRecoveryRandomized(t *testing.T) {
	stages := []core.CrashStage{
		core.CrashPostHash,
		core.CrashPrePack,
		core.CrashMidContainerFlush,
		core.CrashMidCheckpoint,
	}
	perStage := 60 // 4 x 60 = 240 seeded crash points
	if testing.Short() {
		perStage = 8
	}
	for _, stage := range stages {
		stage := stage
		t.Run(stage.String(), func(t *testing.T) {
			for _, m := range crashModes {
				t.Run(m.name, func(t *testing.T) {
					for seed := 0; seed < perStage; seed++ {
						if err := runCrashCycle(m, stage, int64(seed)); err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
					}
				})
			}
		})
	}
}

// runCrashCycle is one seeded crash/recover cycle. Returning an error
// (rather than calling t.Fatal) keeps it usable from subtests and
// benchmarks alike.
func runCrashCycle(m crashMode, stage core.CrashStage, seed int64) error {
	rng := rand.New(rand.NewSource(seed<<8 | int64(stage)))
	arch := fidr.FIDRFull
	if seed%5 == 4 {
		arch = fidr.Baseline // the WAL must hold for both architectures
	}
	tssd, dssd := crashDevices()
	dev := core.NewMemWALDevice()
	w, err := core.NewWAL(dev)
	if err != nil {
		return err
	}
	cfg := crashCfg(arch, tssd, dssd, w)
	cfg.Chunking = m.chunking
	srv, err := fidr.NewServer(cfg)
	if err != nil {
		return err
	}
	a, err := fidr.NewAsync(srv, 16)
	if err != nil {
		return err
	}
	st, err := fidr.NewAsyncStore(a, cfg.ChunkSize)
	if err != nil {
		return err
	}

	// Two submitters with disjoint slot ranges; each tracks its own
	// write history and the seed it last wrote per slot (merged after
	// the join point).
	const rangeSize = 1000
	histories := []extentHistory{make(extentHistory), make(extentHistory)}
	finals := []map[uint64]uint64{{}, {}}

	// Phase 1: a durable floor. Written through the front-end, drained,
	// flushed — committed to the WAL (and sometimes checkpointed), so it
	// must survive any later crash.
	var floor []uint64 // extent addresses
	for k := 0; k < 2; k++ {
		for i := uint64(0); i < 24; i++ {
			slot := uint64(k)*rangeSize + i
			cs := uint64(rng.Intn(64)) // small seed space: duplicates
			if err := st.Write(m.addr(slot), m.payload(cs)); err != nil {
				return fmt.Errorf("phase-1 write: %w", err)
			}
			exts := m.extents(slot, cs)
			histories[k].note(exts)
			finals[k][slot] = cs
			for _, e := range exts {
				floor = append(floor, e.addr)
			}
		}
	}
	// Every write above has returned, so no caller owns the server and
	// the test goroutine may touch it.
	if err := srv.Flush(); err != nil {
		return fmt.Errorf("phase-1 flush: %w", err)
	}
	ckpt := rng.Intn(2) == 0
	if ckpt {
		if err := srv.Checkpoint(); err != nil {
			return fmt.Errorf("phase-1 checkpoint: %w", err)
		}
	}

	// Arm the crash. Write-path stages fire during phase 2; the
	// checkpoint stage fires in the explicit Checkpoint below (hit 1 =
	// before the image write, hit 2 = after image, before truncation).
	switch stage {
	case core.CrashMidCheckpoint:
		srv.ArmCrash(stage, 1+rng.Intn(2))
	case core.CrashMidContainerFlush:
		// Fires once per sealed container; phase 2 seals a handful.
		srv.ArmCrash(stage, 1+rng.Intn(3))
	default:
		srv.ArmCrash(stage, 1+rng.Intn(6))
	}

	// Phase 2: concurrent submitters, overwrites included. Ops may fail
	// once the crash fires; results are classified after the join.
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		k := k
		sub := rand.New(rand.NewSource(seed<<16 | int64(k)<<8 | int64(stage)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := histories[k]
			for op := 0; op < 56; op++ {
				slot := uint64(k)*rangeSize + uint64(sub.Intn(40))
				if sub.Intn(8) == 0 { // occasional read
					data, err := st.Read(m.addr(slot))
					if err == nil && len(h[m.addr(slot)]) > 0 && !h.contains(m.addr(slot), data) {
						panic(fmt.Sprintf("live read of slot %d returned un-written content", slot))
					}
					continue
				}
				// 1-in-4 writes duplicate the shared phase-1 seed
				// space; the rest are fresh content so containers
				// keep sealing (the mid-flush stage needs them).
				cs := uint64(sub.Intn(64))
				if sub.Intn(4) != 0 {
					cs = 1_000 + uint64(sub.Intn(4096))
				}
				h.note(m.extents(slot, cs))
				finals[k][slot] = cs
				st.Write(m.addr(slot), m.payload(cs)) // may fail once the crash fires
			}
		}()
	}
	wg.Wait()

	if stage == core.CrashMidCheckpoint {
		if err := srv.Checkpoint(); !errors.Is(err, core.ErrCrashInjected) {
			return fmt.Errorf("mid-checkpoint crash did not fire: %v", err)
		}
	}
	a.Close() // the shutdown Flush fails on the dead server
	if !srv.Crashed() {
		return fmt.Errorf("stage %v never fired under the phase-2 load", stage)
	}

	// Recover over the same devices: the WAL device drops everything
	// after its last synced commit, like a real power cut.
	dev.Crash()
	w2, err := core.NewWAL(dev)
	if err != nil {
		return fmt.Errorf("reopen WAL: %w", err)
	}
	cfg.WAL = w2
	rec, err := core.RecoverServer(cfg)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	rep, err := rec.Verify()
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.OK() {
		return fmt.Errorf("fsck invariants violated after recovery: %v", rep.Problems)
	}
	history, final := histories[0], finals[0]
	for addr, contents := range histories[1] {
		history[addr] = contents
	}
	for slot, cs := range finals[1] {
		final[slot] = cs
	}
	// Durable floor: phase-1 extents must exist and carry a historic value.
	for _, addr := range floor {
		data, err := rec.Read(addr)
		if err != nil {
			return fmt.Errorf("floor extent %d unreadable after recovery: %w", addr, err)
		}
		if !history.contains(addr, data) {
			return fmt.Errorf("floor extent %d recovered to un-written content", addr)
		}
	}
	// Any other mapped extent must also resolve to a historic value;
	// extents first written after the last commit may be lost, nothing
	// else.
	for addr := range history {
		data, err := rec.Read(addr)
		if err != nil {
			if errors.Is(err, core.ErrNotFound) {
				continue
			}
			return fmt.Errorf("extent %d: recovered volume returned %w", addr, err)
		}
		if !history.contains(addr, data) {
			return fmt.Errorf("extent %d recovered to un-written content", addr)
		}
	}
	// The mid-checkpoint stage crashes after everything was flushed, so
	// nothing at all may be lost — and the checkpoint floor holds
	// whichever of the two images (old or new) survived.
	if stage == core.CrashMidCheckpoint {
		for slot, cs := range final {
			for _, e := range m.extents(slot, cs) {
				data, err := rec.Read(e.addr)
				if err != nil {
					return fmt.Errorf("mid-checkpoint crash lost extent %d: %w", e.addr, err)
				}
				if !bytes.Equal(data, e.data) {
					return fmt.Errorf("extent %d not at its final value after mid-checkpoint crash", e.addr)
				}
			}
		}
	}
	// Dedup domain: re-writing a durable chunk's content must hit the
	// recovered Hash-PBN table, not store a new unique chunk.
	floorData, err := rec.Read(floor[0])
	if err != nil {
		return err
	}
	if err := rec.Write(m.addr(999_999), floorData); err != nil {
		return err
	}
	if err := rec.Flush(); err != nil {
		return err
	}
	if st := rec.Stats(); st.UniqueChunks != 0 {
		return fmt.Errorf("dedup domain lost: duplicate content stored as a new chunk")
	}
	return nil
}

// TestCheckpointRacingWrites interleaves Checkpoint() with rounds of
// concurrent front-end writes (the only safe interleaving for a
// single-owner server: drain, checkpoint, resume) and verifies the
// resulting volume via RecoverServer — the regression test for the
// checkpoint's walSeq cut-off and truncation rules.
func TestCheckpointRacingWrites(t *testing.T) {
	tssd, dssd := crashDevices()
	dev := core.NewMemWALDevice()
	w, err := core.NewWAL(dev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := crashCfg(fidr.FIDRFull, tssd, dssd, w)
	srv, err := fidr.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fidr.NewAsync(srv, 16)
	if err != nil {
		t.Fatal(err)
	}
	front := blocking(t, a)
	last := make(map[uint64]uint64)
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for k := 0; k < 2; k++ {
			k := k
			rng := rand.New(rand.NewSource(int64(round*2 + k)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for op := 0; op < 40; op++ {
					lba := uint64(k)*500 + uint64(rng.Intn(60))
					cs := uint64(rng.Intn(48))
					if err := front.Write(lba, fidr.MakeChunk(cs, 0.5)); err != nil {
						panic(err)
					}
					mu.Lock()
					last[lba] = cs
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		// Queues drained: checkpoint mid-stream, with the open batch and
		// open container still hot. Rounds after this one keep writing
		// into the truncated log.
		if round < 4 {
			if err := srv.Checkpoint(); err != nil {
				t.Fatalf("round %d checkpoint: %v", round, err)
			}
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.WALStats()
	if st.AppendedRecords == 0 || st.Syncs == 0 {
		t.Fatalf("WAL saw no traffic: %+v", st)
	}

	// Recover from the files: the last round was never checkpointed, so
	// this exercises checkpoint + replay together.
	dev.Crash()
	w2, err := core.NewWAL(dev)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = w2
	rec, err := core.RecoverServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr := rec.LastRecovery()
	if rr.FromGenesis {
		t.Fatal("recovery ignored the checkpoints")
	}
	if rr.ReplayedRecords == 0 {
		t.Fatal("final un-checkpointed round was not replayed")
	}
	rep, err := rec.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after checkpoint-interleaved run: %v %v", err, rep.Problems)
	}
	for lba, cs := range last {
		got, err := rec.Read(lba)
		if err != nil {
			t.Fatalf("lba %d: %v", lba, err)
		}
		if !bytes.Equal(got, fidr.MakeChunk(cs, 0.5)) {
			t.Fatalf("lba %d lost its final pre-close value", lba)
		}
	}
}

// TestGroupLocalWALRecovery runs two groups, each with its own WAL and
// devices (the paper's scale-out unit), crashes them at different
// stages, and recovers each independently — group A's crash must never
// need group B's log.
func TestGroupLocalWALRecovery(t *testing.T) {
	type group struct {
		tssd, dssd *ssd.SSD
		dev        *core.MemWALDevice
		cfg        fidr.Config
		srv        *fidr.Server
		history    extentHistory
		floor      []uint64
	}
	stages := []core.CrashStage{core.CrashPostHash, core.CrashMidContainerFlush}
	fixed := crashModes[0]
	groups := make([]*group, 2)
	for i := range groups {
		g := &group{history: make(extentHistory)}
		g.tssd, g.dssd = crashDevices()
		g.dev = core.NewMemWALDevice()
		w, err := core.NewWAL(g.dev)
		if err != nil {
			t.Fatal(err)
		}
		g.cfg = crashCfg(fidr.FIDRFull, g.tssd, g.dssd, w)
		g.srv, err = fidr.NewServer(g.cfg)
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
	}
	// Each group is driven by its own goroutine (single-owner rule),
	// both running concurrently like cluster shards.
	var wg sync.WaitGroup
	for i, g := range groups {
		i, g := i, g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(77 + i)))
			for n := uint64(0); n < 32; n++ {
				cs := uint64(rng.Intn(40))
				if err := g.srv.Write(n, fidr.MakeChunk(cs, 0.5)); err != nil {
					panic(err)
				}
				g.history.note(fixed.extents(n, cs))
				g.floor = append(g.floor, n)
			}
			if err := g.srv.Flush(); err != nil {
				panic(err)
			}
			g.srv.ArmCrash(stages[i], 1+rng.Intn(3))
			for n := uint64(0); n < 200 && !g.srv.Crashed(); n++ {
				lba := uint64(rng.Intn(60))
				cs := uint64(rng.Intn(40))
				g.history.note(fixed.extents(lba, cs))
				g.srv.Write(lba, fidr.MakeChunk(cs, 0.5))
			}
		}()
	}
	wg.Wait()
	for i, g := range groups {
		if !g.srv.Crashed() {
			t.Fatalf("group %d never crashed", i)
		}
		g.dev.Crash()
		w, err := core.NewWAL(g.dev)
		if err != nil {
			t.Fatal(err)
		}
		g.cfg.WAL = w
		rec, err := core.RecoverServer(g.cfg)
		if err != nil {
			t.Fatalf("group %d recovery: %v", i, err)
		}
		rep, err := rec.Verify()
		if err != nil || !rep.OK() {
			t.Fatalf("group %d fsck: %v %v", i, err, rep.Problems)
		}
		for _, lba := range g.floor {
			data, err := rec.Read(lba)
			if err != nil {
				t.Fatalf("group %d floor lba %d: %v", i, lba, err)
			}
			if !g.history.contains(lba, data) {
				t.Fatalf("group %d lba %d recovered to un-written content", i, lba)
			}
		}
	}
	// The cluster constructor enforces group-locality.
	if _, err := fidr.NewCluster(groups[0].cfg, 2); err == nil {
		t.Fatal("NewCluster accepted one WAL shared across groups")
	}
}
