package chunk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// cdcCornerConfigs are the Min/Avg/Max corners the equivalence suite
// sweeps: tiny windows, Avg=Min, Min pressed against Max, Min below the
// confirm window, and realistic backup-scale parameters.
var cdcCornerConfigs = []struct{ min, avg, max int }{
	{1, 1, 1},          // every byte its own chunk cap
	{1, 2, 3},          // minimal nontrivial range
	{5, 8, 9},          // Min >= Max - epsilon
	{4096, 4096, 4096}, // Avg = Min = Max: fixed-size degenerate
	{1536, 1536, 1536}, // degenerate, and not a power of two
	{512, 512, 8192},   // Avg = Min
	{7, 64, 64},        // Min below the confirm window, Max = Avg
	{2048, 8192, 32768},
	{2048, 8192, 8193}, // Max barely above Avg
	{1024, 4096, 16384},
	{4096, 32768, 131072}, // maskBits > 7: table-fold confirm only
}

func boundsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCDCEquivalenceCornerConfigs proves the fast path cuts byte-
// identically to the scalar reference across corner configurations and
// input shapes: empty, shorter than Min, exactly Min, torn tails, and
// long random/compressible buffers.
func TestCDCEquivalenceCornerConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	long := make([]byte, 300000)
	rng.Read(long)
	// Low-entropy variant: repeating 16-byte pattern with random
	// patches, the shape blockcomp's Shaper emits.
	pattern := make([]byte, len(long))
	for i := range pattern {
		pattern[i] = byte(i % 16 * 17)
	}
	copy(pattern[5000:7000], long[:2000])
	copy(pattern[150000:180000], long[:30000])

	for _, cc := range cdcCornerConfigs {
		c := NewCDC(cc.min, cc.avg, cc.max)
		inputs := [][]byte{
			nil,
			long[:1],
			long[:cc.min/2+1],
			long[:cc.min],
			long[:cc.min+1],
			long[:cc.max+cc.max/2],
			long,
			pattern,
		}
		for ii, in := range inputs {
			fast := c.AppendBoundaries(nil, in)
			ref := c.ReferenceBoundaries(nil, in)
			if !boundsEqual(fast, ref) {
				t.Fatalf("config %+v input %d (len %d): fast %v != reference %v",
					cc, ii, len(in), head(fast), head(ref))
			}
			if len(in) > 0 && (len(fast) == 0 || fast[len(fast)-1] != len(in)) {
				t.Fatalf("config %+v input %d: boundaries do not cover input", cc, ii)
			}
			prev := 0
			for _, b := range fast {
				if sz := b - prev; sz <= 0 || sz > cc.max {
					t.Fatalf("config %+v input %d: chunk size %d outside (0,%d]", cc, ii, sz, cc.max)
				}
				prev = b
			}
		}
	}
}

func head(b []int) []int {
	if len(b) > 8 {
		return b[:8]
	}
	return b
}

// TestCDCEquivalenceProperty is the randomized property test: for
// arbitrary data and parameters, fast boundaries == reference
// boundaries.
func TestCDCEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, lenSel uint32, minSel, avgShift, maxSel uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		avg := 1 << (avgShift % 15) // 1 .. 16384
		min := int(minSel)%avg + 1  // 1 .. avg
		max := avg + int(maxSel)%(4*avg)
		c := NewCDC(min, avg, max)
		data := make([]byte, int(lenSel)%(6*max))
		rng.Read(data)
		return boundsEqual(c.AppendBoundaries(nil, data), c.ReferenceBoundaries(nil, data))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCDCResumable pins the property the NIC stream path relies on:
// re-chunking the stream suffix that begins at any boundary reproduces
// the remaining boundaries exactly (the rule for a chunk depends only
// on that chunk's bytes).
func TestCDCResumable(t *testing.T) {
	c := NewCDC(1024, 4096, 16384)
	data := make([]byte, 200000)
	rand.New(rand.NewSource(21)).Read(data)
	bounds := c.Boundaries(data)
	for _, cut := range []int{0, 1, len(bounds) / 2, len(bounds) - 1} {
		if cut >= len(bounds) {
			continue
		}
		off := 0
		if cut > 0 {
			off = bounds[cut-1]
		}
		resumed := c.Boundaries(data[off:])
		want := bounds[cut:]
		if len(resumed) != len(want) {
			t.Fatalf("resume at %d: %d boundaries, want %d", off, len(resumed), len(want))
		}
		for i := range resumed {
			if resumed[i]+off != want[i] {
				t.Fatalf("resume at %d: boundary %d = %d, want %d", off, i, resumed[i]+off, want[i])
			}
		}
	}
}

// TestCDCAppendBoundariesNoAlloc: recycling the caller buffer gives a
// zero-allocation steady state.
func TestCDCAppendBoundariesNoAlloc(t *testing.T) {
	c := NewCDC(2048, 8192, 32768)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(5)).Read(data)
	scratch := c.AppendBoundaries(nil, data)
	allocs := testing.AllocsPerRun(10, func() {
		scratch = c.AppendBoundaries(scratch[:0], data)
	})
	if allocs != 0 {
		t.Errorf("AppendBoundaries into recycled buffer: %.1f allocs/run, want 0", allocs)
	}
}

// --- Benchmarks: the acceptance bar is fast >= 5x reference ---

// benchData is 1 MiB of byte-random input: the size of one NIC ingest
// batch, which is what the inline datapath actually chunks — the buffer
// is cache-warm because hashing and packing touch it in the same batch.
// Byte-random content is the anchor-rate worst case for the fast path
// (real data has fewer anchor bytes and scans faster).
func benchData() []byte {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(42)).Read(data)
	return data
}

// BenchmarkCDCBoundaries compares the skip-ahead word-at-a-time fast
// path against the retained scalar reference on identical input. Per-op
// bytes make the GB/s visible: the fast path must be >= 5x the reference
// on a single core.
func BenchmarkCDCBoundaries(b *testing.B) {
	data := benchData()
	c := NewCDC(2048, 8192, 32768)
	var scratch []int
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			scratch = c.AppendBoundaries(scratch[:0], data)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			scratch = c.ReferenceBoundaries(scratch[:0], data)
		}
	})
}

// BenchmarkCDC measures the full chunk-producing path (Split with
// extent addressing) at default backup parameters.
func BenchmarkCDC(b *testing.B) {
	data := benchData()
	c := NewCDC(DefaultCDCMin, DefaultCDCAvg, DefaultCDCMax)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Split(uint64(i)<<23, data)
	}
}
