// Package fidr is a faithful, fully functional reproduction of
// "FIDR: A Scalable Storage System for Fine-Grain Inline Data Reduction
// with Efficient Memory Handling" (MICRO-52, 2019).
//
// The package is the public facade over the implementation in internal/:
// it exposes the storage servers (the extended-CIDR baseline and the FIDR
// architecture), the Table 3 workload generators, the resource ledgers,
// and the experiment entry points that regenerate every table and figure
// of the paper. See README.md for a tour and DESIGN.md for the
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

// Experiments returns the artifact names RunExperiments accepts: the
// paper's tables and figures in paper order, then the extension studies.
func Experiments() []string { return experiments.Names() }

// RunExperiments regenerates the named artifacts in the order given from
// one run matrix, so a server run that several of them read is played
// once, and hands emit each rendered table, or the error that stopped that
// artifact, as soon as it is done. An unknown name is refused before
// anything runs. scaleIOs controls workload size (0 selects the default).
func RunExperiments(names []string, scaleIOs int, emit func(name, table string, err error)) error {
	sc := experiments.DefaultScale()
	if scaleIOs > 0 {
		sc.IOs = scaleIOs
	}
	return experiments.Render(names, sc, emit)
}

// RunExperiment regenerates one artifact and returns its rendered table.
func RunExperiment(name string, scaleIOs int) (table string, err error) {
	if rerr := RunExperiments([]string{name}, scaleIOs, func(_, t string, e error) { table, err = t, e }); rerr != nil {
		return "", rerr
	}
	return table, err
}
