package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/hostmodel"
	"fidr/internal/trace"
)

func allArchs() []Arch { return []Arch{Baseline, FIDRNicP2P, FIDRFull} }

func newServer(t testing.TB, arch Arch) *Server {
	t.Helper()
	s, err := New(DefaultConfig(arch))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{ChunkSize: 0},
		{ChunkSize: 4096, BatchChunks: 0},
		{ChunkSize: 4096, BatchChunks: 1, ContainerSize: 100},
		{ChunkSize: 4096, BatchChunks: 1, ContainerSize: 1 << 20, UniqueChunkCapacity: 0},
		{ChunkSize: 4096, BatchChunks: 1, ContainerSize: 1 << 20, UniqueChunkCapacity: 1, CacheLines: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWriteSizeValidation(t *testing.T) {
	s := newServer(t, Baseline)
	if err := s.Write(0, make([]byte, 100)); err == nil {
		t.Fatal("short write accepted")
	}
}

func TestWriteReadRoundTripAllArchs(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	for _, arch := range allArchs() {
		s := newServer(t, arch)
		want := make(map[uint64][]byte)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 500; i++ {
			lba := uint64(rng.Intn(200))
			data := sh.Make(uint64(rng.Intn(150)), 4096)
			if err := s.Write(lba, data); err != nil {
				t.Fatalf("%v write %d: %v", arch, i, err)
			}
			want[lba] = data
		}
		// Reads must see the freshest data both before and after Flush.
		for lba, data := range want {
			got, err := s.Read(lba)
			if err != nil {
				t.Fatalf("%v read %d: %v", arch, lba, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%v: pre-flush read of %d corrupted", arch, lba)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("%v flush: %v", arch, err)
		}
		for lba, data := range want {
			got, err := s.Read(lba)
			if err != nil {
				t.Fatalf("%v read %d: %v", arch, lba, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%v: post-flush read of %d corrupted", arch, lba)
			}
		}
	}
}

func TestReadNotFound(t *testing.T) {
	for _, arch := range allArchs() {
		s := newServer(t, arch)
		if _, err := s.Read(42); err != ErrNotFound {
			t.Fatalf("%v: err = %v", arch, err)
		}
	}
}

func TestReadRange(t *testing.T) {
	s := newServer(t, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	var want []byte
	for i := uint64(0); i < 8; i++ {
		data := sh.Make(i, 4096)
		s.Write(10+i, data)
		want = append(want, data...)
	}
	s.Flush()
	got, err := s.ReadRange(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("range read mismatch")
	}
	if _, err := s.ReadRange(10, 0); err == nil {
		t.Fatal("zero-length range accepted")
	}
	if _, err := s.ReadRange(1000, 2); err == nil {
		t.Fatal("unmapped range succeeded")
	}
}

func TestDeduplicationReducesStorage(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	for _, arch := range allArchs() {
		s := newServer(t, arch)
		// 400 writes of only 40 distinct contents at distinct LBAs:
		// 90% duplicates.
		for i := 0; i < 400; i++ {
			if err := s.Write(uint64(i), sh.Make(uint64(i%40), 4096)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.UniqueChunks != 40 {
			t.Fatalf("%v: %d unique chunks, want 40", arch, st.UniqueChunks)
		}
		if st.DuplicateChunks != 360 {
			t.Fatalf("%v: %d duplicates, want 360", arch, st.DuplicateChunks)
		}
		// 10% unique at ~50% compression => ~5% of client bytes stored.
		if r := st.ReductionRatio(); r < 0.02 || r > 0.09 {
			t.Fatalf("%v: reduction ratio %.3f", arch, r)
		}
	}
}

func TestWithinBatchDuplicates(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	for _, arch := range allArchs() {
		s := newServer(t, arch)
		// Same content at many LBAs inside one batch.
		data := sh.Make(7, 4096)
		for i := 0; i < 32; i++ {
			if err := s.Write(uint64(i), data); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.UniqueChunks != 1 || st.DuplicateChunks != 31 {
			t.Fatalf("%v: unique=%d dup=%d", arch, st.UniqueChunks, st.DuplicateChunks)
		}
		for i := 0; i < 32; i++ {
			got, err := s.Read(uint64(i))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%v: LBA %d broken after in-batch dedup", arch, i)
			}
		}
	}
}

func TestOverwriteSameLBA(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	for _, arch := range allArchs() {
		s := newServer(t, arch)
		v1 := sh.Make(1, 4096)
		v2 := sh.Make(2, 4096)
		s.Write(9, v1)
		s.Write(9, v2)
		got, err := s.Read(9)
		if err != nil || !bytes.Equal(got, v2) {
			t.Fatalf("%v: overwrite not visible", arch)
		}
		s.Flush()
		got, err = s.Read(9)
		if err != nil || !bytes.Equal(got, v2) {
			t.Fatalf("%v: overwrite lost after flush", arch)
		}
	}
}

func TestFIDRBypassesHostMemoryForData(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	base := newServer(t, Baseline)
	fidr := newServer(t, FIDRFull)
	for i := 0; i < 256; i++ {
		data := sh.Make(uint64(i%64), 4096)
		base.Write(uint64(i), data)
		fidr.Write(uint64(i), data)
	}
	base.Flush()
	fidr.Flush()

	bSnap := base.Ledger().Snapshot()
	fSnap := fidr.Ledger().Snapshot()
	// FIDR must move far less through host memory.
	if fSnap.MemPerClientByte() > bSnap.MemPerClientByte()/2 {
		t.Fatalf("FIDR mem/byte %.3f not well below baseline %.3f",
			fSnap.MemPerClientByte(), bSnap.MemPerClientByte())
	}
	// The baseline moves no P2P bytes; FIDR moves the bulk P2P.
	if base.Topology().P2PBytes() != 0 {
		t.Fatal("baseline recorded P2P traffic")
	}
	if fidr.Topology().P2PBytes() == 0 {
		t.Fatal("FIDR recorded no P2P traffic")
	}
	// FIDR's NIC->host traffic is metadata-only: far below client bytes.
	if f := fSnap.MemBytes[hostmodel.PathNICHost]; f > fSnap.ClientBytes/10 {
		t.Fatalf("FIDR NIC->host bytes %d not metadata-scale (client %d)", f, fSnap.ClientBytes)
	}
	// No predictor in FIDR.
	if fSnap.CPUNanos[hostmodel.CompPredictor] != 0 || fSnap.MemBytes[hostmodel.PathPredictor] != 0 {
		t.Fatal("FIDR charged predictor resources")
	}
	if bSnap.CPUNanos[hostmodel.CompPredictor] == 0 {
		t.Fatal("baseline did not charge predictor")
	}
}

func TestFIDRFullOffloadsTableCPU(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	nicOnly := newServer(t, FIDRNicP2P)
	full := newServer(t, FIDRFull)
	for i := 0; i < 512; i++ {
		data := sh.Make(uint64(i%100), 4096)
		nicOnly.Write(uint64(i), data)
		full.Write(uint64(i), data)
	}
	nicOnly.Flush()
	full.Flush()
	nSnap := nicOnly.Ledger().Snapshot()
	fSnap := full.Ledger().Snapshot()
	if nSnap.CPUNanos[hostmodel.CompTreeIndex] == 0 {
		t.Fatal("software-cache FIDR charged no tree CPU")
	}
	if fSnap.CPUNanos[hostmodel.CompTreeIndex] != 0 {
		t.Fatal("full FIDR charged host tree CPU")
	}
	if fSnap.TotalCPUNanos() >= nSnap.TotalCPUNanos() {
		t.Fatalf("full FIDR CPU %d not below nic-only %d",
			fSnap.TotalCPUNanos(), nSnap.TotalCPUNanos())
	}
}

func TestNICReadHits(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	s := newServer(t, FIDRFull)
	data := sh.Make(3, 4096)
	s.Write(5, data) // stays in NIC buffer (batch not full)
	got, err := s.Read(5)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatal("in-NIC read failed")
	}
	if s.Stats().NICReadHits != 1 {
		t.Fatal("NIC read hit not counted")
	}
	// Host memory untouched by this read+write pair except nothing.
	if mem := s.Ledger().Snapshot().TotalMemBytes(); mem != 0 {
		t.Fatalf("NIC-buffer-only traffic touched host memory: %d", mem)
	}
}

func TestMispredictionsHandled(t *testing.T) {
	// The baseline predictor has bounded memory; a workload with reuse
	// distance beyond its capacity forces mispredictions, which must be
	// corrected (data integrity) and counted.
	cfg := DefaultConfig(Baseline)
	cfg.PredictorCapacity = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := blockcomp.NewShaper(0.5)
	// Write 64 distinct, then repeat them: predictor forgot most.
	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			if err := s.Write(uint64(i), sh.Make(uint64(i), 4096)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Now new contents that collide with stale predictor state.
	for i := 0; i < 64; i++ {
		if err := s.Write(uint64(100+i), sh.Make(uint64(1000+i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	ps := s.PredictorStats()
	if ps.FalseDuplicate == 0 && s.Stats().Mispredictions == 0 {
		t.Skip("predictor never mispredicted on this stream")
	}
	// Integrity despite mispredictions.
	for i := 0; i < 64; i++ {
		got, err := s.Read(uint64(100 + i))
		if err != nil || !bytes.Equal(got, sh.Make(uint64(1000+i), 4096)) {
			t.Fatalf("mispredicted chunk %d corrupted", i)
		}
	}
}

func TestTraceWorkloadIntegration(t *testing.T) {
	// Run a Table 3 workload end-to-end on every architecture and
	// cross-check reduction behaviour.
	for _, arch := range allArchs() {
		gen, err := trace.NewGenerator(trace.ReadMixed(3000))
		if err != nil {
			t.Fatal(err)
		}
		s := newServer(t, arch)
		sh := blockcomp.NewShaper(0.5)
		written := make(map[uint64]uint64)
		buf := make([]byte, 4096)
		for {
			req, ok := gen.Next()
			if !ok {
				break
			}
			switch req.Op {
			case trace.OpWrite:
				sh.Block(req.ContentSeed, buf)
				if err := s.Write(req.LBA, buf); err != nil {
					t.Fatalf("%v write: %v", arch, err)
				}
				written[req.LBA] = req.ContentSeed
			case trace.OpRead:
				got, err := s.Read(req.LBA)
				if err != nil {
					t.Fatalf("%v read %d: %v", arch, req.LBA, err)
				}
				want := sh.Make(written[req.LBA], 4096)
				if !bytes.Equal(got, want) {
					t.Fatalf("%v: read of %d returned wrong content", arch, req.LBA)
				}
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.UniqueChunks+st.DuplicateChunks != st.ClientWrites {
			t.Fatalf("%v: chunks %d+%d != writes %d", arch,
				st.UniqueChunks, st.DuplicateChunks, st.ClientWrites)
		}
	}
}

func TestReadLatencyAnchors(t *testing.T) {
	p := DefaultLatency()
	base := p.ReadLatency(Baseline)
	fidr := p.ReadLatency(FIDRFull)
	if base < 650*time.Microsecond || base > 750*time.Microsecond {
		t.Errorf("baseline read latency %v, paper 700 us", base)
	}
	if fidr < 450*time.Microsecond || fidr > 530*time.Microsecond {
		t.Errorf("FIDR read latency %v, paper 490 us", fidr)
	}
	if fidr >= base {
		t.Error("FIDR not faster than baseline")
	}
	if p.WriteCommitLatency(Baseline) != p.WriteCommitLatency(FIDRFull) {
		t.Error("write commit latency differs across archs")
	}
}

func TestArchString(t *testing.T) {
	if Baseline.String() != "baseline" || FIDRNicP2P.String() != "fidr-nic-p2p" || FIDRFull.String() != "fidr-full" {
		t.Error("arch strings wrong")
	}
}

func BenchmarkWriteFIDR(b *testing.B) {
	s := newServer(b, FIDRFull)
	sh := blockcomp.NewShaper(0.5)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		sh.Block(uint64(i%1000), buf)
		if err := s.Write(uint64(i), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBaseline(b *testing.B) {
	s := newServer(b, Baseline)
	sh := blockcomp.NewShaper(0.5)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		sh.Block(uint64(i%1000), buf)
		if err := s.Write(uint64(i), buf); err != nil {
			b.Fatal(err)
		}
	}
}
