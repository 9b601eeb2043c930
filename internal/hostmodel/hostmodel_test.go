package hostmodel

import (
	"sync"
	"testing"

	"fidr/internal/metrics"
)

func TestLedgerBasics(t *testing.T) {
	l := NewLedger()
	l.Mem(PathNICHost, 100)
	l.Mem(PathTableCache, 50)
	l.Count(EvProtocolWrite, 2) // 2 × 500 ns
	l.Count(EvProtocolRead, 2)  // 2 × 1500 ns
	l.Client(200)
	s := l.Snapshot()
	if s.Events[EvProtocolWrite] != 2 || s.CPUNanos[CompProtocol] != 4000 {
		t.Errorf("protocol: %d writes, %d ns", s.Events[EvProtocolWrite], s.CPUNanos[CompProtocol])
	}
	if s.TotalMemBytes() != 150 {
		t.Errorf("mem total = %d", s.TotalMemBytes())
	}
	if s.TotalCPUNanos() != 4000 {
		t.Errorf("cpu total = %d", s.TotalCPUNanos())
	}
	if s.MemPerClientByte() != 0.75 {
		t.Errorf("mem/byte = %v", s.MemPerClientByte())
	}
	if s.CPUNanosPerClientByte() != 20 {
		t.Errorf("cpu ns/byte = %v", s.CPUNanosPerClientByte())
	}
}

func TestEmptySnapshotSafe(t *testing.T) {
	var s Snapshot
	if s.MemPerClientByte() != 0 || s.CPUNanosPerClientByte() != 0 {
		t.Error("zero ledger produced nonzero intensities")
	}
	if s.MemFraction(PathNICHost) != 0 || s.CPUFraction(CompPredictor) != 0 {
		t.Error("zero ledger produced nonzero fractions")
	}
	if s.ManagementCPUFraction() != 0 {
		t.Error("zero ledger management fraction nonzero")
	}
}

// TestConcurrentCharges: 8 goroutines count while a scraper reads the
// priced series through the registry. Every scrape prices one read of the
// DMA-chunk counter, so it is a multiple of the 2-chunk step and never
// goes backwards.
func TestConcurrentCharges(t *testing.T) {
	l := NewLedger()
	reg := metrics.NewRegistry()
	l.Instrument(reg)
	const step = 2 * 395 // Count(EvDMAChunk, 2) at the default price
	scrape := func() (dma, total uint64) {
		for _, m := range reg.Snapshot() {
			switch m.Name {
			case "hostmodel.cpu.dma_mgmt.ns":
				dma = uint64(m.Value)
			case "hostmodel.cpu_ns":
				total = uint64(m.Value)
			}
		}
		return dma, total
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Mem(PathHostFPGA, 1)
				l.Count(EvDMAChunk, 2)
				l.Client(3)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last uint64
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		dma, total := scrape()
		if dma%step != 0 || dma < last || total < dma {
			t.Fatalf("scrape: dma_mgmt %d ns (previous %d), cpu_ns %d", dma, last, total)
		}
		last = dma
	}
	s := l.Snapshot()
	if s.MemBytes[PathHostFPGA] != 8000 || s.Events[EvDMAChunk] != 16000 || s.ClientBytes != 24000 {
		t.Fatalf("totals: %d/%d/%d", s.MemBytes[PathHostFPGA], s.Events[EvDMAChunk], s.ClientBytes)
	}
	if dma, total := scrape(); dma != 16000*395 || total != dma || s.CPUNanos[CompDMAMgmt] != dma {
		t.Fatalf("priced: series %d/%d ns, snapshot %d ns", dma, total, s.CPUNanos[CompDMAMgmt])
	}
}

// TestRepricingIsExact: pricing is count × price per event, so changing
// one event's price moves only that event's component, by exactly its
// count × the change, and pricing at the default table is the snapshot.
func TestRepricingIsExact(t *testing.T) {
	l := NewLedger()
	for e := Event(0); e < numEvents; e++ {
		l.Count(e, uint64(e)*7+1)
	}
	s := l.Snapshot()
	if s.Priced(DefaultCosts()) != s {
		t.Fatal("pricing at DefaultCosts changed the snapshot")
	}
	const delta = 11
	for e := Event(0); e < numEvents; e++ {
		c := DefaultCosts()
		c[e] += delta
		p := s.Priced(c)
		for comp := Component(0); comp < numComponents; comp++ {
			want := s.CPUNanos[comp]
			if comp == eventRows[e].comp {
				want += s.Events[e] * delta
			}
			if p.CPUNanos[comp] != want {
				t.Errorf("event %d +%d ns: %v = %d ns, want %d", e, delta, comp, p.CPUNanos[comp], want)
			}
		}
		if p.Events != s.Events || p.MemBytes != s.MemBytes || p.ClientBytes != s.ClientBytes {
			t.Errorf("event %d: re-pricing moved a counted field", e)
		}
	}
}

func TestProjections(t *testing.T) {
	l := NewLedger()
	// 4.23 bytes of memory traffic and 0.893 ns CPU per client byte:
	// the paper's baseline write-only intensities.
	l.Client(1e9)
	l.Mem(PathNICHost, 4.23e9)
	s := l.Snapshot()
	s.CPUNanos[CompTreeIndex] = 0.893e9
	// At 75 GB/s the projections should hit ~317 GB/s and ~67 cores.
	if bw := s.MemBWAt(75e9) / 1e9; bw < 315 || bw > 320 {
		t.Errorf("projected mem BW = %.1f GB/s, want ~317", bw)
	}
	if cores := s.CoresAt(75e9); cores < 66 || cores > 68 {
		t.Errorf("projected cores = %.1f, want ~67", cores)
	}
}

func TestFractions(t *testing.T) {
	l := NewLedger()
	l.Mem(PathNICHost, 25)
	l.Mem(PathPredictor, 75)
	s := l.Snapshot()
	if f := s.MemFraction(PathNICHost); f != 0.25 {
		t.Errorf("fraction = %v", f)
	}
	s.CPUNanos[CompPredictor] = 30
	s.CPUNanos[CompTableContent] = 70
	if f := s.CPUFraction(CompPredictor); f != 0.3 {
		t.Errorf("cpu fraction = %v", f)
	}
	// Predictor is management overhead; content access is not.
	if f := s.ManagementCPUFraction(); f != 0.3 {
		t.Errorf("management fraction = %v", f)
	}
}

func TestComponentClassification(t *testing.T) {
	mgmt := []Component{CompPredictor, CompBatchSched, CompDMAMgmt, CompTreeIndex,
		CompTableSSDIO, CompTableReplace, CompDataSSDIO, CompDeviceMgr}
	for _, c := range mgmt {
		if !c.IsManagementOverhead() {
			t.Errorf("%v not classified as management", c)
		}
	}
	for _, c := range []Component{CompTableContent, CompLBATable} {
		if c.IsManagementOverhead() {
			t.Errorf("%v wrongly classified as management", c)
		}
	}
}

func TestStringsDistinct(t *testing.T) {
	seenP := map[string]bool{}
	for _, p := range Paths() {
		s := p.String()
		if seenP[s] {
			t.Errorf("duplicate path label %q", s)
		}
		seenP[s] = true
	}
	seenC := map[string]bool{}
	for _, c := range Components() {
		s := c.String()
		if seenC[s] {
			t.Errorf("duplicate component label %q", s)
		}
		seenC[s] = true
	}
}

func TestSocketDefaults(t *testing.T) {
	s := PaperSocket()
	if got := s.TargetThroughput(); got != 76.8e9 {
		t.Errorf("target throughput = %v, want 76.8e9 (60%% of 128 GB/s)", got)
	}
}

func TestMaxThroughputBounds(t *testing.T) {
	sock := PaperSocket()
	l := NewLedger()
	l.Client(1e9)
	l.Mem(PathNICHost, 4.23e9) // memory-bound baseline
	snap := l.Snapshot()
	snap.CPUNanos[CompTreeIndex] = 0.893e9

	// Memory: 170/4.23 = 40.2 GB/s. CPU: 22/0.893 = 24.6 GB/s.
	// CPU should bind.
	got := sock.MaxThroughput(snap, 0) / 1e9
	if got < 23 || got > 26 {
		t.Errorf("max throughput = %.1f GB/s, want ~24.6 (CPU-bound)", got)
	}
	// A device cap below that must bind instead.
	if got := sock.MaxThroughput(snap, 10e9); got != 10e9 {
		t.Errorf("device cap not applied: %v", got)
	}
	// A light workload is bounded by the IO target.
	light := Snapshot{ClientBytes: 1e9}
	light.MemBytes[PathNICHost] = 0.1e9
	light.CPUNanos[CompDeviceMgr] = 0.01e9
	if got := sock.MaxThroughput(light, 0); got != sock.TargetThroughput() {
		t.Errorf("light workload bound = %v, want IO target", got)
	}
}

func TestDefaultCostsPositive(t *testing.T) {
	for e, ns := range DefaultCosts() {
		if ns == 0 {
			t.Errorf("event %d (%v) has no price", e, eventRows[e].comp)
		}
	}
}

// TestBaselineCostComposition verifies that composing the cost table for
// the paper's profiling workload reproduces the Figure 5b shape: table
// cache management ~52%, predictor ~33% of total CPU.
func TestBaselineCostComposition(t *testing.T) {
	c := DefaultCosts()
	const missRate = 0.19
	const dirtyRate = 0.5
	perChunk := map[string]float64{
		"predictor": float64(c[EvPredictorChunk]),
		"tablemgmt": float64(c[EvTreeLookup]) +
			2*missRate*float64(c[EvTreeUpdate]) +
			missRate*(1+dirtyRate)*float64(c[EvTableSSDIO]) +
			54*float64(c[EvBucketScanEntry]) +
			float64(c[EvLRUAccess]),
		"other": float64(c[EvBatchSchedChunk]) + float64(c[EvDMAChunk]),
	}
	total := perChunk["predictor"] + perChunk["tablemgmt"] + perChunk["other"]
	if f := perChunk["tablemgmt"] / total; f < 0.45 || f < perChunk["predictor"]/total {
		t.Errorf("table mgmt share = %.3f, want dominant ~0.52", f)
	}
	if f := perChunk["predictor"] / total; f < 0.25 || f > 0.40 {
		t.Errorf("predictor share = %.3f, want ~0.33", f)
	}
	// Total CPU per byte should project to roughly 67 cores at 75 GB/s.
	cores := total / 4096 * 75
	if cores < 55 || cores > 80 {
		t.Errorf("projected cores = %.1f, want ~67", cores)
	}
}

func BenchmarkLedgerCharge(b *testing.B) {
	l := NewLedger()
	for i := 0; i < b.N; i++ {
		l.Mem(PathTableCache, 4096)
		l.Count(EvTreeLookup, 1)
		l.Client(4096)
	}
}
