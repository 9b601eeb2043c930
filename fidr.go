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
	"fidr/internal/metrics"
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

// rows adapts an experiment returning (typed rows, table, error).
func rows[R any](f func(experiments.Scale) (R, *metrics.Table, error)) runner {
	return func(sc experiments.Scale) (string, error) {
		_, tab, err := f(sc)
		return render(tab, err)
	}
}

// table adapts an experiment returning (table, error).
func table(f func(experiments.Scale) (*metrics.Table, error)) runner {
	return func(sc experiments.Scale) (string, error) { return render(f(sc)) }
}

// experimentRegistry lists every artifact with its runner: paper order,
// then the extension studies.
var experimentRegistry = []struct {
	name string
	run  runner
}{
	{"fig3", rows(experiments.Fig3)},
	{"fig4", rows(experiments.Fig4)},
	{"fig5", rows(experiments.Fig5)},
	{"table1", rows(experiments.Table1)},
	{"table2", table(experiments.Table2)},
	{"table3", rows(func(sc experiments.Scale) ([]experiments.Table3Row, *metrics.Table, error) {
		return experiments.Table3(sc)
	})},
	{"fig11", rows(experiments.Fig11)},
	{"fig12", rows(experiments.Fig12)},
	{"fig13", rows(experiments.Fig13)},
	{"fig14", rows(experiments.Fig14)},
	{"latency", func(experiments.Scale) (string, error) {
		_, tab := experiments.Latency()
		return render(tab, nil)
	}},
	{"table4", func(experiments.Scale) (string, error) { return render(experiments.Table4(), nil) }},
	{"table5", rows(experiments.Table5)},
	{"fig15", rows(experiments.Fig15)},
	{"fig16", rows(experiments.Fig16)},
	{"ablation-chunk", rows(experiments.AblationChunkSize)},
	{"ablation-batch", rows(experiments.AblationBatch)},
	{"ablation-cache", rows(experiments.AblationCache)},
	{"ablation-width", rows(experiments.AblationWidth)},
	{"ablation-readoffload", rows(experiments.AblationReadOffload)},
	{"ablation-readcache", rows(experiments.AblationReadCache)},
	{"ablation-scaleout", rows(experiments.AblationScaleout)},
	{"cdc", rows(func(sc experiments.Scale) ([]experiments.CDCRow, *metrics.Table, error) {
		return experiments.CDC(sc)
	})},
	{"capacity", rows(func(sc experiments.Scale) ([]experiments.CapacityRow, *metrics.Table, error) {
		return experiments.Capacity(sc)
	})},
	{"archival", rows(func(sc experiments.Scale) ([]experiments.ArchivalRow, *metrics.Table, error) {
		return experiments.Archival(sc)
	})},
	{"lifetime", rows(experiments.Lifetime)},
	{"selfperf", func(experiments.Scale) (string, error) {
		_, tab, err := experiments.SelfPerf()
		return render(tab, err)
	}},
	{"scorecard", table(experiments.Scorecard)},
}

// Experiments returns artifact names accepted by RunExperiment, in paper
// order followed by the extension studies.
func Experiments() []string {
	out := make([]string, len(experimentRegistry))
	for i, e := range experimentRegistry {
		out[i] = e.name
	}
	return out
}

// RunExperiment regenerates one paper artifact and returns its rendered
// table. scaleIOs controls workload size (0 selects the default).
func RunExperiment(name string, scaleIOs int) (string, error) {
	sc := experiments.DefaultScale()
	if scaleIOs > 0 {
		sc.IOs = scaleIOs
	}
	for _, e := range experimentRegistry {
		if e.name == name {
			return e.run(sc)
		}
	}
	return "", fmt.Errorf("fidr: unknown experiment %q (see Experiments())", name)
}

func render(tab *metrics.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return tab.String(), nil
}
