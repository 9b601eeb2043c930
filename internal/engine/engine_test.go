package engine

import (
	"bytes"
	"fmt"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/fingerprint"
	"fidr/internal/ssd"
)

func newEngine(t *testing.T, containerSize int) *Compression {
	t.Helper()
	e, err := NewCompression(blockcomp.NewLZ(), containerSize)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// chunkIn is one chunk entering the engine.
type chunkIn struct {
	LBA  uint64
	FP   fingerprint.FP
	Data []byte
}

func mkIn(seed uint64, ratio float64) chunkIn {
	sh := blockcomp.NewShaper(ratio)
	data := sh.Make(seed, 4096)
	return chunkIn{LBA: seed, FP: fingerprint.Of(data), Data: data}
}

// compressBatch is the server's unique-batch step: the batch compresses
// across the lane array (CompressMany), then packs into containers
// strictly in batch order (Pack).
func compressBatch(e *Compression, batch []chunkIn) ([]ChunkMeta, error) {
	datas := make([][]byte, len(batch))
	for i := range batch {
		datas[i] = batch[i].Data
	}
	rs, err := e.CompressMany(datas)
	if err != nil {
		return nil, err
	}
	metas := make([]ChunkMeta, len(batch))
	for i, in := range batch {
		if metas[i], err = e.Pack(in.LBA, in.FP, rs[i].Data, len(in.Data)); err != nil {
			return nil, err
		}
	}
	return metas, nil
}

func TestCompressBatchMetadata(t *testing.T) {
	e := newEngine(t, 1<<20)
	batch := []chunkIn{mkIn(1, 0.5), mkIn(2, 0.5), mkIn(3, 0.5)}
	metas, err := compressBatch(e, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("%d metas", len(metas))
	}
	for i, m := range metas {
		if m.LBA != batch[i].LBA || m.FP != batch[i].FP {
			t.Fatalf("meta %d identity mismatch", i)
		}
		if m.RawSize != 4096 || m.CSize == 0 || m.CSize > 4096 {
			t.Fatalf("meta %d sizes: %+v", i, m)
		}
		if m.IsRaw() {
			t.Fatalf("50%%-compressible chunk stored raw")
		}
	}
	st := e.Stats()
	if st.ChunksIn != 3 || st.BytesIn != 3*4096 {
		t.Fatalf("stats %+v", st)
	}
	if r := st.CompressionRatio(); r < 0.35 || r > 0.65 {
		t.Fatalf("compression ratio %.3f for 50%% shaped data", r)
	}
}

func TestRawFallbackForIncompressible(t *testing.T) {
	e := newEngine(t, 1<<20)
	in := mkIn(7, 1.0) // fully random
	metas, err := compressBatch(e, []chunkIn{in})
	if err != nil {
		t.Fatal(err)
	}
	if !metas[0].IsRaw() {
		t.Fatal("incompressible chunk not stored raw")
	}
	if e.Stats().RawStored != 1 {
		t.Fatal("raw counter not incremented")
	}
}

func TestContainerSealAndRoundTrip(t *testing.T) {
	// Small containers force seals mid-batch; every chunk must be
	// recoverable from the sealed container bytes.
	e := newEngine(t, 8192)
	var ins []chunkIn
	for i := uint64(0); i < 20; i++ {
		ins = append(ins, mkIn(i, 0.5))
	}
	metas, err := compressBatch(e, ins)
	if err != nil {
		t.Fatal(err)
	}
	e.Flush()
	sealed := e.TakeSealed()
	if len(sealed) < 2 {
		t.Fatalf("only %d sealed containers", len(sealed))
	}
	byIndex := make(map[uint64][]byte)
	for _, s := range sealed {
		if len(s.Data) != 8192 {
			t.Fatalf("container %d size %d", s.Index, len(s.Data))
		}
		byIndex[s.Index] = s.Data
	}
	d := NewDecompression(blockcomp.NewLZ())
	for i, m := range metas {
		cont, ok := byIndex[m.Container]
		if !ok {
			t.Fatalf("chunk %d in missing container %d", i, m.Container)
		}
		cdata := cont[m.Offset : m.Offset+m.CSize]
		out, err := d.Decompress(cdata, int(m.RawSize))
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !bytes.Equal(out, ins[i].Data) {
			t.Fatalf("chunk %d corrupted through container", i)
		}
	}
	if e.Stats().ContainersSealed != uint64(len(sealed)) {
		t.Fatal("sealed counter mismatch")
	}
}

func TestTakeSealedDrains(t *testing.T) {
	e := newEngine(t, 8192)
	compressBatch(e, []chunkIn{mkIn(1, 0.5)})
	e.Flush()
	if got := e.TakeSealed(); len(got) != 1 {
		t.Fatalf("first take: %d", len(got))
	}
	if got := e.TakeSealed(); len(got) != 0 {
		t.Fatalf("second take: %d", len(got))
	}
}

func TestEmptyChunkRejected(t *testing.T) {
	e := newEngine(t, 8192)
	if _, err := compressBatch(e, []chunkIn{{LBA: 1}}); err == nil {
		t.Fatal("empty chunk accepted")
	}
}

func TestRawDecompressPassthrough(t *testing.T) {
	d := NewDecompression(blockcomp.NewLZ())
	raw := []byte("stored raw because incompressible")
	out, err := d.Decompress(raw, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("raw passthrough mutated data")
	}
	// The returned slice must be a copy, not an alias.
	out[0] = 'X'
	if raw[0] == 'X' {
		t.Fatal("passthrough aliased input")
	}
}

func TestInvalidContainerSize(t *testing.T) {
	if _, err := NewCompression(blockcomp.NewLZ(), 100); err == nil {
		t.Fatal("bad container size accepted")
	}
}

func BenchmarkCompressBatch(b *testing.B) {
	e, err := NewCompression(blockcomp.NewLZ(), 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	ins := make([]chunkIn, 16)
	for i := range ins {
		sh := blockcomp.NewShaper(0.5)
		data := sh.Make(uint64(i), 4096)
		ins[i] = chunkIn{LBA: uint64(i), Data: data}
	}
	b.SetBytes(16 * 4096)
	for i := 0; i < b.N; i++ {
		if _, err := compressBatch(e, ins); err != nil {
			b.Fatal(err)
		}
		e.TakeSealed()
	}
}

// TestCompressManyMatchesSerial asserts the tentpole invariant: the lane
// array produces byte-identical output and stats at any lane count.
func TestCompressManyMatchesSerial(t *testing.T) {
	var datas [][]byte
	for i := uint64(0); i < 33; i++ {
		ratio := 0.5
		if i%5 == 0 {
			ratio = 1.0 // sprinkle raw-fallback chunks into the batch
		}
		sh := blockcomp.NewShaper(ratio)
		datas = append(datas, sh.Make(i, 4096))
	}
	ref := newEngine(t, 1<<20)
	want, err := ref.CompressMany(datas)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := make([][]byte, len(want))
	for i, c := range want {
		wantBytes[i] = append([]byte(nil), c.Data...)
	}
	for _, n := range []int{2, 3, 8} {
		e := newEngine(t, 1<<20)
		e.SetCompressLanes(n)
		if e.CompressLanes() != n {
			t.Fatalf("lanes %d", e.CompressLanes())
		}
		got, err := e.CompressMany(datas)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Raw != want[i].Raw || !bytes.Equal(got[i].Data, wantBytes[i]) {
				t.Fatalf("lanes=%d chunk %d differs from serial result", n, i)
			}
		}
		if ref.Stats() != e.Stats() {
			t.Fatalf("lanes=%d stats %+v != serial %+v", n, e.Stats(), ref.Stats())
		}
	}
}

// TestCompressManyScratchReuse checks the documented aliasing contract:
// results are valid until the next CompressMany call, which recycles the
// per-slot scratch buffers instead of allocating fresh ones.
func TestCompressManyScratchReuse(t *testing.T) {
	e := newEngine(t, 1<<20)
	sh := blockcomp.NewShaper(0.5)
	first, err := e.CompressMany([][]byte{sh.Make(1, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	p0 := &first[0].Data[0]
	second, err := e.CompressMany([][]byte{sh.Make(1, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	if &second[0].Data[0] != p0 {
		t.Fatal("scratch buffer was not reused across CompressMany calls")
	}
}

func TestCompressManyEmptyChunkError(t *testing.T) {
	e := newEngine(t, 1<<20)
	sh := blockcomp.NewShaper(0.5)
	if _, err := e.CompressMany([][]byte{sh.Make(1, 4096), nil}); err == nil {
		t.Fatal("empty chunk accepted")
	}
	// Chunks before the failing index commit, matching the serial path.
	if st := e.Stats(); st.ChunksIn != 1 {
		t.Fatalf("prefix commit: ChunksIn = %d, want 1", st.ChunksIn)
	}
}

func BenchmarkCompressLanes(b *testing.B) {
	sh := blockcomp.NewShaper(0.5)
	var datas [][]byte
	for i := uint64(0); i < 64; i++ {
		datas = append(datas, sh.Make(i, 4096))
	}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) {
			e, err := NewCompression(blockcomp.NewLZ(), 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			e.SetCompressLanes(n)
			b.SetBytes(int64(len(datas) * 4096))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.CompressMany(datas); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// packAndWrite packs chunks whose ratios (and so compressed sizes) vary,
// flushing part-way so the seals have unequal fill, and writes every
// sealed container to dev. With recycle set it drains the queue the way
// core.writeSealed does (NextSealed, write, PopSealed, which hands the
// buffer back to the builder); otherwise it takes fresh containers with
// TakeSealed and never returns them. It returns how many containers it
// wrote.
func packAndWrite(t *testing.T, e *Compression, dev *ssd.SSD, recycle bool) int {
	t.Helper()
	written := 0
	write := func(sc SealedContainer) {
		if err := dev.Write(sc.Index*uint64(len(sc.Data)), sc.Data); err != nil {
			t.Fatal(err)
		}
		written++
	}
	drain := func() {
		if !recycle {
			for _, sc := range e.TakeSealed() {
				write(sc)
			}
			return
		}
		for sc, ok := e.NextSealed(); ok; sc, ok = e.NextSealed() {
			write(sc)
			e.PopSealed()
		}
	}
	for i := uint64(0); i < 60; i++ {
		in := mkIn(i, []float64{0.9, 0.1, 0.5, 0.3}[i%4])
		rs, err := e.CompressMany([][]byte{in.Data})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Pack(in.LBA, in.FP, rs[0].Data, len(in.Data)); err != nil {
			t.Fatal(err)
		}
		if i == 7 || i == 30 || i == 31 {
			e.Flush() // a nearly empty container between full ones
		}
		drain()
	}
	e.Flush()
	drain()
	return written
}

// TestRecycleKeepsContainersIdentical: a recycled buffer once held another
// container's chunks; re-zeroing it must leave every container on the SSD
// — padding included — byte-identical to one packed into fresh buffers.
func TestRecycleKeepsContainersIdentical(t *testing.T) {
	const size = 16 << 10
	var devs [2]*ssd.SSD
	var n [2]int
	for i, recycle := range []bool{false, true} {
		cfg := ssd.Samsung970Pro("data")
		devs[i] = ssd.MustNew(cfg)
		n[i] = packAndWrite(t, newEngine(t, size), devs[i], recycle)
	}
	if n[0] != n[1] || n[0] < 6 {
		t.Fatalf("wrote %d and %d containers, want the same and several", n[0], n[1])
	}
	for c := 0; c < n[0]; c++ {
		fresh, _ := devs[0].Read(uint64(c*size), size)
		reused, _ := devs[1].Read(uint64(c*size), size)
		if !bytes.Equal(fresh, reused) {
			t.Fatalf("container %d differs when its buffer was recycled", c)
		}
	}
}

// TestSealCycleNoAllocs: pack until a container seals, write it from the
// sealed queue and pop it, as core.writeSealed does — once two buffers are
// in circulation the cycle allocates nothing. (A warmed CompressMany round
// allocates nothing either; the pool's round is pinned in package lanes.)
func TestSealCycleNoAllocs(t *testing.T) {
	const size = 16 << 10
	e := newEngine(t, size)
	dev := ssd.MustNew(ssd.Samsung970Pro("data"))
	for c := 0; c < 4; c++ { // every page the cycle will write exists
		if err := dev.Write(uint64(c*size), make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	in := mkIn(1, 0.5)
	cdata, _, err := e.Compress(in.Data)
	if err != nil {
		t.Fatal(err)
	}
	sealedN := 0
	cycle := func() {
		for before := e.OpenContainer(); e.OpenContainer() == before; {
			if _, err := e.Pack(in.LBA, in.FP, cdata, len(in.Data)); err != nil {
				t.Fatal(err)
			}
		}
		for sc, ok := e.NextSealed(); ok; sc, ok = e.NextSealed() {
			// Containers wrap onto four slots so the device grows no pages.
			if err := dev.Write(sc.Index%4*size, sc.Data); err != nil {
				t.Fatal(err)
			}
			sealedN++
			e.PopSealed()
		}
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("seal cycle: %v allocs/run, want 0", n)
	}
	if sealedN < 20 {
		t.Fatalf("only %d containers sealed", sealedN)
	}
}
