// Package experiments reproduces every table and figure of the paper's
// motivation and evaluation sections. Each Fig*/Table* function runs the
// functional servers (internal/core) on synthesized workloads
// (internal/trace), feeds the measured ledgers through the projection
// models, and returns both structured results and a rendered table whose
// rows mirror the paper's artifact. Render renders any list of them from
// one run matrix, which is how cmd/fidrbench prints them; bench_test.go
// wraps them as benchmarks; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"

	"fidr/internal/core"
	"fidr/internal/hashpbn"
	"fidr/internal/hostmodel"
	"fidr/internal/tablecache"
	"fidr/internal/trace"

	"fidr/internal/blockcomp"
)

// Scale controls experiment size. Functional runs are scale-invariant in
// the ratios that matter (dedup, hit rates, per-byte intensities), so
// tests use small scales and the harness uses larger ones.
type Scale struct {
	// IOs is the number of client requests per workload run.
	IOs int
}

// DefaultScale suits the benchmark harness.
func DefaultScale() Scale { return Scale{IOs: 60000} }

// TestScale suits unit tests.
func TestScale() Scale { return Scale{IOs: 8000} }

// workloadFor builds trace parameters whose reuse window is sized
// against the cache so the Table 3 hit-rate targets emerge functionally:
// a window comfortably inside the cache makes nearly every duplicate's
// bucket a cache hit, so hit rate tracks the dedup ratio (Write-H/L),
// while a window beyond the cache depresses it (Write-M).
func workloadFor(name string, n, cacheLines int) (trace.Params, error) {
	var p trace.Params
	switch name {
	case "Write-H":
		p = trace.WriteH(n)
	case "Write-M":
		// Write-M's 81% hit target sits below its 84% dedup ratio:
		// a slice of duplicates reuses content from deep history
		// whose buckets fell out of the cache.
		p = trace.WriteM(n)
		p.FarReuseFraction = 0.05
	case "Write-L":
		p = trace.WriteL(n)
	case "Read-Mixed":
		p = trace.ReadMixed(n)
	case "Read-Skewed":
		// §8's imbalanced-read scenario: Read-Mixed with Zipf-skewed
		// read addresses hammering a hot set.
		p = trace.ReadMixed(n)
		p.Name = "Read-Skewed"
		p.ReadSkew = 1.4
	case "Archival":
		// Durability extension: append-heavy backup ingest with long
		// sequential runs; drives the archival experiment.
		p = trace.Archival(n)
	case "Profiling-Write", "Profiling-Mixed":
		// §3.2 profiling workloads: dedup and compression both 50%.
		p = trace.WriteH(n)
		p.Name = name
		p.DedupRatio = 0.5
		if name == "Profiling-Mixed" {
			p.ReadFraction = 0.5
		}
	default:
		return trace.Params{}, fmt.Errorf("experiments: unknown workload %q", name)
	}
	p.ReuseWindow = max(cacheLines/4, 8)
	return p, nil
}

// RunResult captures one (architecture, workload) functional run. It is a
// comparable value: the matrix hands out copies.
type RunResult struct {
	Arch     core.Arch
	Workload string
	Snapshot hostmodel.Snapshot
	Server   core.Stats
	Cache    tablecache.Stats
	// P2PBytes and RootBytes summarize PCIe routing.
	P2PBytes, RootBytes uint64
	// DataSSDWriteBytes and TableSSDWriteBytes are the flash bytes the
	// data SSDs (containers) and table SSDs (bucket fills and flushes)
	// took.
	DataSSDWriteBytes, TableSSDWriteBytes uint64
}

// MemPerByte is host-memory bytes per client byte.
func (r RunResult) MemPerByte() float64 { return r.Snapshot.MemPerClientByte() }

// CPUNsPerByte is host-CPU nanoseconds per client byte.
func (r RunResult) CPUNsPerByte() float64 { return r.Snapshot.CPUNanosPerClientByte() }

// runOptions tweak a run.
type runOptions struct {
	cacheFrac float64
	// hashLanes / compressLanes size the accelerator lane arrays.
	// Experiments pin both to 1 by default so published artifacts never
	// depend on the host's core count; results are byte-identical at any
	// lane count regardless (see WithLanes).
	hashLanes     int
	compressLanes int
	// edit sets an ablation's knob on the sized config.
	edit func(*core.Config)
}

// config is the one way an experiment builds a server config: sized for
// a workload run of n IOs at the paper's cache fraction with lanes pinned
// to 1, then the options.
func config(arch core.Arch, n int, opts []func(*runOptions)) (core.Config, error) {
	// The paper caches 2.8% of the table (§7.1 factor 5).
	o := runOptions{cacheFrac: paperCacheFrac, hashLanes: 1, compressLanes: 1}
	for _, f := range opts {
		f(&o)
	}
	cfg := core.DefaultConfig(arch)
	// Containers must seal often enough that reads exercise the SSD
	// path (at paper scale containers turn over constantly).
	cfg.ContainerSize = 128 << 10
	// Keep the bucket population large enough that the 64-line cache
	// floor stays a small fraction of the table; otherwise small-scale
	// runs inflate hit rates (unique fingerprints land in cached
	// buckets far more often than at paper scale).
	cfg.UniqueChunkCapacity = max(uint64(n)+4096, 1<<17)
	geom, err := hashpbn.GeometryFor(cfg.UniqueChunkCapacity, 0.5)
	if err != nil {
		return core.Config{}, err
	}
	// The cached share of table buckets: the paper's 2.8%, or a
	// calibration override for the §3.2 profiling runs.
	cfg.CacheLines = max(int(float64(geom.NumBuckets)*o.cacheFrac), 64)
	cfg.HashLanes = o.hashLanes
	cfg.CompressLanes = o.compressLanes
	if o.edit != nil {
		o.edit(&cfg)
	}
	return cfg, nil
}

// withConfig sets an ablation's knob (batch size, read offload, read
// cache) on the sized config.
func withConfig(edit func(*core.Config)) func(*runOptions) {
	return func(o *runOptions) { o.edit = edit }
}

// matrix is the runs of one top-level call. Each (server config, workload)
// that a figure asks for is played once; a later ask reads the stored
// result. The key is the validated config plus the trace parameters —
// values, never names — so a lane count or an ablation knob is a run of
// its own, and Fig 11, 12 and 14 and Table 3, which run the same servers
// over the Table 3 workloads, share them when Render or Scorecard renders
// them from one matrix. It also keeps the crash rates the Cache HW-Engine
// model measures per update width.
type matrix struct {
	sc     Scale
	runs   map[runKey]RunResult
	crash  map[int]float64
	played int // servers run
}

type runKey struct {
	cfg core.Config
	wp  trace.Params
}

func newMatrix(sc Scale) *matrix {
	return &matrix{sc: sc, runs: map[runKey]RunResult{}, crash: map[int]float64{}}
}

// Run executes workload wl on architecture arch at the given scale and
// returns the measured result.
func Run(arch core.Arch, workload string, sc Scale, opts ...func(*runOptions)) (RunResult, error) {
	return newMatrix(sc).run(arch, workload, opts...)
}

// run returns workload's result on arch under opts, playing it unless an
// earlier ask on m ran the same config over the same trace.
func (m *matrix) run(arch core.Arch, workload string, opts ...func(*runOptions)) (RunResult, error) {
	cfg, err := config(arch, m.sc.IOs, opts)
	if err != nil {
		return RunResult{}, err
	}
	wp, err := workloadFor(workload, m.sc.IOs, cfg.CacheLines)
	if err != nil {
		return RunResult{}, err
	}
	key := runKey{cfg: cfg, wp: wp}
	if err := key.cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	if cfg.Compressor == nil {
		key.cfg.Compressor = nil // Validate's fresh LZ engine is the default, not a new run
	}
	if r, ok := m.runs[key]; ok {
		return r, nil
	}
	m.played++
	srv, err := core.New(cfg)
	if err != nil {
		return RunResult{}, err
	}
	if err := play(srv, wp); err != nil {
		return RunResult{}, err
	}
	_, p2p, root := srv.Topology().Report()
	r := RunResult{
		Arch:               cfg.Arch,
		Workload:           wp.Name,
		Snapshot:           srv.Ledger().Snapshot(),
		Server:             srv.Stats(),
		Cache:              srv.CacheStats(),
		P2PBytes:           p2p,
		RootBytes:          root,
		DataSSDWriteBytes:  srv.DataSSDStats().WriteBytes,
		TableSSDWriteBytes: srv.TableSSDStats().WriteBytes,
	}
	m.runs[key] = r
	return r, nil
}

// play streams a whole generated workload through srv and flushes it.
func play(srv *core.Server, wp trace.Params) error {
	gen, err := trace.NewGenerator(wp)
	if err != nil {
		return err
	}
	if err := drive(srv, gen, blockcomp.NewShaper(wp.CompressRatio), -1); err != nil {
		return err
	}
	return srv.Flush()
}

// drive feeds the next n requests of gen to srv (all that remain when n
// is negative), so a caller can stop mid-trace — to checkpoint, say —
// and resume.
func drive(srv *core.Server, gen *trace.Generator, sh *blockcomp.Shaper, n int) error {
	cfg := srv.Config()
	buf := make([]byte, cfg.ChunkSize)
	for i := 0; i != n; i++ {
		req, ok := gen.Next()
		if !ok {
			return nil
		}
		switch req.Op {
		case trace.OpWrite:
			sh.Block(req.ContentSeed, buf)
			if err := srv.Write(traceAddr(cfg, req.LBA), buf); err != nil {
				return fmt.Errorf("experiments: %s/%s write: %w", cfg.Arch, gen.Params().Name, err)
			}
		case trace.OpRead:
			if _, err := srv.Read(traceAddr(cfg, req.LBA)); err != nil && err != core.ErrNotFound {
				return fmt.Errorf("experiments: %s/%s read: %w", cfg.Arch, gen.Params().Name, err)
			}
		}
	}
	return nil
}

// traceAddr is the address a server with cfg's (validated) chunking takes
// for a trace's chunk-index LBA: the block's byte offset in the chunking's
// units — the index itself under fixed chunking; under CDC the byte offset
// of the stream segment the write is ingested as, so identical content
// still dedups while extent addresses never collide.
func traceAddr(cfg core.Config, lba uint64) uint64 {
	return lba * uint64(cfg.ChunkSize/cfg.Chunking.Unit())
}

// ConfigFor exposes the experiment-standard server sizing (paper cache
// fraction) for external drivers such as benchmark/. Its lane counts stay
// 0, the host-derived default.
func ConfigFor(arch core.Arch, n int) (core.Config, error) {
	return config(arch, n, []func(*runOptions){WithLanes(0, 0)})
}

// WorkloadParams exposes the experiment-standard workload tuning for
// external drivers such as benchmark/.
func WorkloadParams(name string, n, cacheLines int) (trace.Params, error) {
	return workloadFor(name, n, cacheLines)
}

// WithCacheFrac overrides the cached table fraction.
func WithCacheFrac(f float64) func(*runOptions) {
	return func(o *runOptions) { o.cacheFrac = f }
}

// WithLanes overrides the accelerator lane counts (hash cores and
// compression pipelines). 0 selects the GOMAXPROCS-derived default.
// Lane count changes wall time only: every rendered table, figure and
// stats snapshot is byte-identical across lane counts.
func WithLanes(hash, compress int) func(*runOptions) {
	return func(o *runOptions) {
		o.hashLanes = hash
		o.compressLanes = compress
	}
}

// paperCacheFrac is the cached share of table buckets the paper runs at.
const paperCacheFrac = 0.028

// profilingCacheFrac calibrates the §3.2 profiling runs: the paper's
// trace extraction produced ~80% table-cache hit rates on its profiling
// workloads; at small synthetic scale the same hit rate needs a larger
// cached fraction because unique fingerprints spread over fewer buckets
// (with 50% dedup, hit rate ~= 0.5 + 0.5*cacheFrac, so 0.7 lands near
// the paper's operating point).
const profilingCacheFrac = 0.70

// TargetThroughput is the paper's 75 GB/s per-socket goal.
const TargetThroughput = 75e9

// MeasurementPoints are the two throughputs the paper measures at before
// projecting linearly (§3.2).
var MeasurementPoints = []float64{5e9, 6.9e9}
