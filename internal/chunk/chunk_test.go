package chunk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// fixed returns the degenerate Min = Avg = Max chunker a ModeFixed
// configuration builds.
func fixed(t testing.TB, size int) *CDC {
	t.Helper()
	c, err := Config{Mode: ModeFixed, Max: size}.NewChunker()
	if err != nil {
		t.Fatalf("fixed chunker of %d: %v", size, err)
	}
	return c
}

func TestNewFixedValidation(t *testing.T) {
	for _, size := range []int{-1, -4096} {
		if _, err := (Config{Mode: ModeFixed, Max: size}).NewChunker(); err == nil {
			t.Errorf("fixed chunk size %d accepted", size)
		}
	}
	// Any positive size works, power of two or not; Min and Avg are
	// whatever the caller left there and must be overwritten.
	for _, size := range []int{512, 1536, 4096, 32768} {
		c, err := Config{Mode: ModeFixed, Min: 7, Avg: 9, Max: size}.NewChunker()
		if err != nil {
			t.Fatalf("fixed chunk size %d: %v", size, err)
		}
		if c.Min != size || c.Avg != size || c.Max != size {
			t.Errorf("size %d: chunker min/avg/max = %d/%d/%d", size, c.Min, c.Avg, c.Max)
		}
	}
	if c := fixed(t, 0); c.Max != DefaultSize {
		t.Errorf("zero config chunk size = %d, want %d", c.Max, DefaultSize)
	}
}

func TestSplitBasic(t *testing.T) {
	c := fixed(t, 4096)
	data := make([]byte, 3*4096)
	for i := range data {
		data[i] = byte(i)
	}
	chunks := c.Split(8192, data)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	for i, ch := range chunks {
		if want := uint64(8192 + i*4096); ch.LBA != want {
			t.Errorf("chunk %d extent address = %d, want %d", i, ch.LBA, want)
		}
		if !bytes.Equal(ch.Data, data[i*4096:(i+1)*4096]) {
			t.Errorf("chunk %d data mismatch", i)
		}
	}
}

// TestSplitUnaligned: the degenerate chunker has no alignment rule of
// its own (the fixed-mode server enforces one chunk per write). A short
// segment is one short chunk, and cuts are relative to the segment
// start, wherever that is in the stream.
func TestSplitUnaligned(t *testing.T) {
	c := fixed(t, 4096)
	if got := c.Boundaries(make([]byte, 100)); !boundsEqual(got, []int{100}) {
		t.Errorf("100-byte segment cut at %v, want [100]", got)
	}
	if got := c.Boundaries(make([]byte, 4096+100)); !boundsEqual(got, []int{4096, 4196}) {
		t.Errorf("4196-byte segment cut at %v, want [4096 4196]", got)
	}
	chunks := c.Split(100, make([]byte, 4096))
	if len(chunks) != 1 || chunks[0].LBA != 100 || len(chunks[0].Data) != 4096 {
		t.Errorf("segment at offset 100: %d chunks, first %+v", len(chunks), chunks)
	}
}

func TestSplitEmpty(t *testing.T) {
	if chunks := fixed(t, 4096).Split(0, nil); len(chunks) != 0 {
		t.Fatalf("empty split: %v chunks", len(chunks))
	}
}

func TestSplitRoundTrip(t *testing.T) {
	c := fixed(t, 512)
	prop := func(nChunks uint8, seed int64) bool {
		n := int(nChunks%32) + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, n*512)
		rng.Read(data)
		chunks := c.Split(0, data)
		if len(chunks) != n {
			return false
		}
		var re []byte
		for i, ch := range chunks {
			if ch.LBA != uint64(i*512) || len(ch.Data) != 512 {
				return false
			}
			re = append(re, ch.Data...)
		}
		return bytes.Equal(re, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestCovers: a segment of n bytes is covered by ceil(n/size) chunks,
// whatever the content (the degenerate chunker never reads it).
func TestCovers(t *testing.T) {
	c := fixed(t, 4096)
	rng := rand.New(rand.NewSource(5))
	for _, tt := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {4095, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {8193, 3},
	} {
		data := make([]byte, tt.n)
		rng.Read(data)
		if got := len(c.Boundaries(data)); got != tt.want {
			t.Errorf("%d bytes covered by %d chunks, want %d", tt.n, got, tt.want)
		}
		if got := len(c.ReferenceBoundaries(nil, data)); got != tt.want {
			t.Errorf("%d bytes: reference cut %d chunks, want %d", tt.n, got, tt.want)
		}
	}
}

func TestRMWConfigValidate(t *testing.T) {
	bad := []RMWConfig{
		{BlockSize: 0, ChunkSize: 4096, BufferBytes: 4096},
		{BlockSize: 4096, ChunkSize: 2048, BufferBytes: 4096},
		{BlockSize: 4096, ChunkSize: 6000, BufferBytes: 4096},
		{BlockSize: 4096, ChunkSize: 4096, BufferBytes: 100},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	good := RMWConfig{BlockSize: 4096, ChunkSize: 32768, BufferBytes: 4 << 20}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRMWSmallChunkingNoReads(t *testing.T) {
	cfg := RMWConfig{BlockSize: 4096, ChunkSize: 4096, BufferBytes: 4 << 20}
	writes := []BlockWrite{{0, 1}, {1, 2}, {2, 3}, {0, 1}}
	res, err := SimulateRMW(cfg, writes)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceReadBytes != 0 {
		t.Errorf("small chunking issued %d read bytes, want 0", res.DeviceReadBytes)
	}
	// {0,1} repeats with identical content -> 3 unique chunk writes.
	if res.DeviceWriteBytes != 3*4096 {
		t.Errorf("write bytes = %d, want %d", res.DeviceWriteBytes, 3*4096)
	}
	if res.ClientBytes != 4*4096 {
		t.Errorf("client bytes = %d, want %d", res.ClientBytes, 4*4096)
	}
}

func TestRMWLargeChunkingFetchesMissing(t *testing.T) {
	// Write all 8 blocks of large chunk 0, flush, then rewrite a single
	// block with new content: the second flush must fetch the 7 missing
	// blocks and write back a whole 32-KB chunk.
	cfg := RMWConfig{BlockSize: 4096, ChunkSize: 32768, BufferBytes: 8 * 4096}
	var writes []BlockWrite
	for i := uint64(0); i < 8; i++ {
		writes = append(writes, BlockWrite{i, 100 + i})
	}
	res1, err := SimulateRMW(cfg, writes)
	if err != nil {
		t.Fatal(err)
	}
	if res1.DeviceReadBytes != 0 || res1.DeviceWriteBytes != 32768 {
		t.Fatalf("full-chunk write: reads=%d writes=%d", res1.DeviceReadBytes, res1.DeviceWriteBytes)
	}

	writes = append(writes, BlockWrite{3, 999})
	res2, err := SimulateRMW(cfg, writes)
	if err != nil {
		t.Fatal(err)
	}
	wantReads := uint64(7 * 4096)
	if res2.DeviceReadBytes != wantReads {
		t.Errorf("reads = %d, want %d", res2.DeviceReadBytes, wantReads)
	}
	if res2.DeviceWriteBytes != 2*32768 {
		t.Errorf("writes = %d, want %d", res2.DeviceWriteBytes, 2*32768)
	}
}

func TestRMWLargeDuplicateDetected(t *testing.T) {
	cfg := RMWConfig{BlockSize: 4096, ChunkSize: 32768, BufferBytes: 16 * 4096}
	var writes []BlockWrite
	// Two large chunks with identical content vectors.
	for i := uint64(0); i < 8; i++ {
		writes = append(writes, BlockWrite{i, 7})
	}
	for i := uint64(8); i < 16; i++ {
		writes = append(writes, BlockWrite{i, 7})
	}
	res, err := SimulateRMW(cfg, writes)
	if err != nil {
		t.Fatal(err)
	}
	if res.DuplicateChunks != 1 {
		t.Errorf("duplicates = %d, want 1", res.DuplicateChunks)
	}
	if res.DeviceWriteBytes != 32768 {
		t.Errorf("writes = %d, want one chunk", res.DeviceWriteBytes)
	}
}

func TestRMWAmplificationGrowsWithRandomness(t *testing.T) {
	// Random single-block writes over a pre-populated address space must
	// amplify far more under 32-KB chunking than 4-KB chunking.
	rng := rand.New(rand.NewSource(42))
	const space = 1 << 14 // 16K blocks = 64 MB
	var warm []BlockWrite
	for i := uint64(0); i < space; i++ {
		warm = append(warm, BlockWrite{i, rng.Uint64()})
	}
	var rand4k []BlockWrite
	for i := 0; i < 4096; i++ {
		rand4k = append(rand4k, BlockWrite{uint64(rng.Intn(space)), rng.Uint64()})
	}
	trace := append(append([]BlockWrite{}, warm...), rand4k...)

	small, err := SimulateRMW(RMWConfig{4096, 4096, 4 << 20}, trace)
	if err != nil {
		t.Fatal(err)
	}
	large, err := SimulateRMW(RMWConfig{4096, 32768, 4 << 20}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if large.Amplification() < 2*small.Amplification() {
		t.Errorf("large-chunk amplification %.2f not clearly above small-chunk %.2f",
			large.Amplification(), small.Amplification())
	}
	if large.FetchedBlocks == 0 {
		t.Error("random rewrite phase fetched no blocks under large chunking")
	}
}

func TestCDCBoundariesCoverInput(t *testing.T) {
	c := NewCDC(2048, 8192, 65536)
	data := make([]byte, 300000)
	rand.New(rand.NewSource(1)).Read(data)
	bounds := c.Boundaries(data)
	if len(bounds) == 0 || bounds[len(bounds)-1] != len(data) {
		t.Fatalf("boundaries do not cover input: %v", bounds)
	}
	prev := 0
	for _, b := range bounds {
		sz := b - prev
		if sz <= 0 || sz > c.Max {
			t.Fatalf("chunk size %d outside (0,%d]", sz, c.Max)
		}
		prev = b
	}
}

func TestCDCStableUnderShift(t *testing.T) {
	// Content-defined chunking should resynchronize after an insertion:
	// most boundaries in the tail should be preserved (shifted).
	c := NewCDC(1024, 4096, 16384)
	base := make([]byte, 200000)
	rand.New(rand.NewSource(7)).Read(base)
	shifted := append(append([]byte{0xAA, 0xBB, 0xCC}, base[:100]...), base[100:]...)

	b1 := c.Boundaries(base)
	b2 := c.Boundaries(shifted)

	set := make(map[int]bool, len(b1))
	for _, b := range b1 {
		if b > 110 {
			set[b+3] = true // expected shifted position
		}
	}
	match := 0
	for _, b := range b2 {
		if set[b] {
			match++
		}
	}
	if match < len(set)/2 {
		t.Errorf("only %d/%d tail boundaries resynchronized", match, len(set))
	}
}

func TestCDCSplitRoundTrip(t *testing.T) {
	c := NewCDC(512, 2048, 8192)
	data := make([]byte, 50000)
	rand.New(rand.NewSource(3)).Read(data)
	const base = uint64(1 << 30)
	var re []byte
	for _, ch := range c.Split(base, data) {
		// Extent addressing: LBA is the absolute stream byte offset of
		// the chunk start.
		if ch.LBA != base+uint64(len(re)) {
			t.Fatalf("chunk LBA %d, want extent address %d", ch.LBA, base+uint64(len(re)))
		}
		re = append(re, ch.Data...)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("CDC split does not reassemble input")
	}
}

func TestCDCSplitNoCollisionAcrossCalls(t *testing.T) {
	// Two Split calls over distinct stream ranges must produce disjoint
	// extent addresses (the old scheme numbered from 0 every call).
	c := NewCDC(512, 2048, 8192)
	data := make([]byte, 20000)
	rand.New(rand.NewSource(9)).Read(data)
	seen := map[uint64]bool{}
	off := uint64(0)
	for i := 0; i < 3; i++ {
		for _, ch := range c.Split(off, data) {
			if seen[ch.LBA] {
				t.Fatalf("extent address %d reused across Split calls", ch.LBA)
			}
			seen[ch.LBA] = true
		}
		off += uint64(len(data))
	}
}

func TestCDCEmptyInput(t *testing.T) {
	c := NewCDC(512, 2048, 8192)
	if got := c.Boundaries(nil); len(got) != 0 {
		t.Fatalf("Boundaries(nil) = %v, want empty", got)
	}
}

func BenchmarkFixedSplit(b *testing.B) {
	c := fixed(b, 4096)
	data := make([]byte, 1<<20)
	var bounds []int
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		bounds = c.AppendBoundaries(bounds[:0], data)
	}
}

func BenchmarkCDCSplit(b *testing.B) {
	c := NewCDC(2048, 8192, 65536)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		c.Boundaries(data)
	}
}
