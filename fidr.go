// Package fidr is a faithful, fully functional reproduction of
// "FIDR: A Scalable Storage System for Fine-Grain Inline Data Reduction
// with Efficient Memory Handling" (MICRO-52, 2019).
//
// The package is the public facade over the implementation in internal/:
// it exposes the storage servers (the extended-CIDR baseline and the FIDR
// architecture), the Table 3 workload generators, the resource ledgers,
// and a registry of experiment runners that regenerate every table and
// figure of the paper. See README.md for a tour and DESIGN.md for the
// system inventory.
//
// Quick start:
//
//	srv, err := fidr.NewServer(fidr.DefaultConfig(fidr.FIDRFull))
//	...
//	srv.Write(lba, chunk) // 4-KB chunks
//	data, err := srv.Read(lba)
//	srv.Flush()
//	fmt.Println(srv.Stats().ReductionRatio())
package fidr

import (
	"fmt"

	"fidr/internal/blockcomp"
	"fidr/internal/core"
	"fidr/internal/experiments"
	"fidr/internal/trace"
)

// Arch selects a server architecture.
type Arch = core.Arch

// Architectures.
const (
	// Baseline is the extended CIDR baseline (§2.3): host buffering,
	// software unique-chunk predictor, integrated FPGA array, software
	// table caching.
	Baseline = core.Baseline
	// FIDRNicP2P enables in-NIC hashing/buffering and PCIe peer-to-peer
	// datapaths (ideas 1-2 of §5.1).
	FIDRNicP2P = core.FIDRNicP2P
	// FIDRFull additionally offloads table-cache management to the
	// Cache HW-Engine (idea 3).
	FIDRFull = core.FIDRFull
)

// Config sizes a server; see core.Config for field documentation.
type Config = core.Config

// Server is a functional inline-data-reduction storage server.
type Server = core.Server

// Stats aggregates server counters.
type Stats = core.Stats

// SnapshotID names a point-in-time snapshot.
type SnapshotID = core.SnapshotID

// DefaultConfig returns a working configuration for the architecture.
func DefaultConfig(arch Arch) Config { return core.DefaultConfig(arch) }

// NewServer builds a server.
func NewServer(cfg Config) (*Server, error) { return core.New(cfg) }

// ChunkSize is the paper's deduplication granularity.
const ChunkSize = 4096

// Workload re-exports the trace generator's parameter type.
type Workload = trace.Params

// Table 3 workload constructors at a chosen request count.
var (
	// WriteH: 88% dedup, high cache locality.
	WriteH = trace.WriteH
	// WriteM: 84% dedup, medium locality.
	WriteM = trace.WriteM
	// WriteL: 43.1% dedup, low locality.
	WriteL = trace.WriteL
	// ReadMixed: 50% reads, writes as Write-H.
	ReadMixed = trace.ReadMixed
)

// NewWorkload returns a request generator for params.
func NewWorkload(p Workload) (*trace.Generator, error) { return trace.NewGenerator(p) }

// MakeChunk fills a ChunkSize payload for a content seed at the given
// compressibility (the workload generators emit content seeds; this is
// how seeds become bytes).
func MakeChunk(seed uint64, compressRatio float64) []byte {
	return blockcomp.NewShaper(compressRatio).Make(seed, ChunkSize)
}

// runner produces one artifact's rendered table.
type runner func(experiments.Scale) (string, error)

// experimentOrder lists artifact names in paper order, then extensions.
var experimentOrder = []string{
	"fig3", "fig4", "fig5", "table1", "table2", "table3",
	"fig11", "fig12", "fig13", "fig14", "latency",
	"table4", "table5", "fig15", "fig16",
	"ablation-chunk", "ablation-batch", "ablation-cache",
	"ablation-width", "ablation-readoffload",
	"ablation-readcache", "ablation-scaleout",
	"lifetime", "selfperf", "scorecard", "observe",
}

// experimentRegistry maps every artifact name to its runner.
var experimentRegistry = map[string]runner{
	"fig3": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Fig3(sc)
		return render(tab, err)
	},
	"fig4": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Fig4(sc)
		return render(tab, err)
	},
	"fig5": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Fig5(sc)
		return render(tab, err)
	},
	"table1": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Table1(sc)
		return render(tab, err)
	},
	"table2": func(sc experiments.Scale) (string, error) {
		tab, err := experiments.Table2(sc)
		return render(tab, err)
	},
	"table3": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Table3(sc)
		return render(tab, err)
	},
	"fig11": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Fig11(sc)
		return render(tab, err)
	},
	"fig12": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Fig12(sc)
		return render(tab, err)
	},
	"fig13": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Fig13(sc)
		return render(tab, err)
	},
	"fig14": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Fig14(sc)
		return render(tab, err)
	},
	"latency": func(experiments.Scale) (string, error) {
		_, tab := experiments.Latency()
		return render(tab, nil)
	},
	"table4": func(experiments.Scale) (string, error) { return render(experiments.Table4(), nil) },
	"table5": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Table5(sc)
		return render(tab, err)
	},
	"fig15": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Fig15(sc)
		return render(tab, err)
	},
	"fig16": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Fig16(sc)
		return render(tab, err)
	},
	"ablation-chunk": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.AblationChunkSize(sc)
		return render(tab, err)
	},
	"ablation-batch": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.AblationBatch(sc)
		return render(tab, err)
	},
	"ablation-cache": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.AblationCache(sc)
		return render(tab, err)
	},
	"ablation-width": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.AblationWidth(sc)
		return render(tab, err)
	},
	"ablation-readoffload": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.AblationReadOffload(sc)
		return render(tab, err)
	},
	"ablation-readcache": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.AblationReadCache(sc)
		return render(tab, err)
	},
	"ablation-scaleout": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.AblationScaleout(sc)
		return render(tab, err)
	},
	"lifetime": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Lifetime(sc)
		return render(tab, err)
	},
	"selfperf": func(experiments.Scale) (string, error) {
		_, tab, err := experiments.SelfPerf()
		return render(tab, err)
	},
	"scorecard": func(sc experiments.Scale) (string, error) {
		tab, err := experiments.Scorecard(sc)
		return render(tab, err)
	},
	"observe": func(sc experiments.Scale) (string, error) {
		_, tab, err := experiments.Observe(sc)
		return render(tab, err)
	},
}

// Experiments returns artifact names accepted by RunExperiment, in paper
// order followed by the extension studies.
func Experiments() []string {
	out := make([]string, len(experimentOrder))
	copy(out, experimentOrder)
	return out
}

// RunExperiment regenerates one paper artifact and returns its rendered
// table. scaleIOs controls workload size (0 selects the default).
func RunExperiment(name string, scaleIOs int) (string, error) {
	sc := experiments.DefaultScale()
	if scaleIOs > 0 {
		sc.IOs = scaleIOs
	}
	run, ok := experimentRegistry[name]
	if !ok {
		return "", fmt.Errorf("fidr: unknown experiment %q (see Experiments())", name)
	}
	return run(sc)
}

type stringer interface{ String() string }

func render(tab stringer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return tab.String(), nil
}
