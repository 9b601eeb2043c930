package hwtree

import (
	"fmt"
	"math"
)

// Throughput model for the Cache HW-Engine (Figure 13, Table 5).
//
// The engine is a pipeline: one table-cache lookup can issue per clock,
// non-leaf stages are single-cycle on-chip memories, and the leaf stage
// lives in FPGA-board DRAM. Four resources can bound throughput:
//
//   - the pipeline clock (one op per cycle),
//   - the FPGA-board DRAM port, charged per leaf access (lookups that
//     miss the small on-chip leaf cache, plus the read-modify-write
//     traffic of updates),
//   - update-pipeline occupancy: an update holds an update slot for its
//     full latency (search stages + leaf read + update stages + leaf
//     write); W concurrent speculative updates give W slots, derated by
//     the crash/replay rate, and
//   - the table SSDs, when the engine also serves cache-line fetches
//     (each miss moves one bucket from the table SSD).
//
// Constants are calibrated against the paper's measured anchors
// (27.1 GB/s single-update and 63.8 GB/s 4-update for Write-M; ~54 GB/s
// single-update and DRAM-saturated ~127 GB/s for Write-H; 80/64/10 GB/s
// estimated maxima in Table 5); see EXPERIMENTS.md for paper-vs-model.
type PerfParams struct {
	// ClockHz is the pipeline clock (VCU1525 designs close ~250 MHz).
	ClockHz float64
	// Height is the number of tree levels (= pipeline stages per phase).
	Height int
	// LeafBytes is the DRAM leaf node size (16 keys of 32 B entries).
	LeafBytes int
	// DRAMLatencyNs is the board-DRAM random access latency.
	DRAMLatencyNs float64
	// DRAMBandwidth is effective board-DRAM bandwidth (bytes/s).
	DRAMBandwidth float64
	// LookupPortNs is DRAM port occupancy per uncached leaf read.
	LookupPortNs float64
	// UpdatePortNs is DRAM port occupancy per committed update
	// (read-modify-write of the leaf plus amortized split traffic).
	UpdatePortNs float64
	// RowMissFactor derates DRAM port times for working sets that
	// exceed row-buffer locality (1.0 for the 410-MB medium tree,
	// ~1.15 for the 100-GB large tree).
	RowMissFactor float64
	// ChunkBytes converts ops/s to data-reduction GB/s (one lookup per
	// 4-KB chunk).
	ChunkBytes int
	// TableSSDBandwidth, if nonzero, adds the table-SSD fetch path:
	// every cache miss moves BucketBytes from the table SSDs.
	TableSSDBandwidth float64
	// BucketBytes is the table bucket (cache line) size.
	BucketBytes int
}

// MediumTreeParams models the prototype configuration of Table 5: a
// 410-MB table cache indexed by a 9-level tree (8 on-chip + DRAM leaf).
func MediumTreeParams() PerfParams {
	return PerfParams{
		ClockHz:       250e6,
		Height:        9,
		LeafBytes:     512,
		DRAMLatencyNs: 120,
		DRAMBandwidth: 19.2e9,
		LookupPortNs:  30,
		UpdatePortNs:  80,
		RowMissFactor: 1.0,
		ChunkBytes:    4096,
		BucketBytes:   4096,
	}
}

// LargeTreeParams models the PB-scale configuration: a ~100-GB cache
// indexed by a 14-level tree (13 on-chip levels in URAM + DRAM leaf).
func LargeTreeParams() PerfParams {
	p := MediumTreeParams()
	p.Height = 14
	p.RowMissFactor = 1.15
	return p
}

// WithTableSSD returns a copy with the table-SSD fetch path attached at
// the given bandwidth (the prototype's 2 GB/s of table SSDs).
func (p PerfParams) WithTableSSD(bw float64) PerfParams {
	p.TableSSDBandwidth = bw
	return p
}

// Validate checks the parameters.
func (p PerfParams) Validate() error {
	if p.ClockHz <= 0 || p.Height <= 0 || p.LeafBytes <= 0 || p.ChunkBytes <= 0 {
		return fmt.Errorf("hwtree: non-positive core parameter in %+v", p)
	}
	if p.DRAMBandwidth <= 0 || p.RowMissFactor <= 0 {
		return fmt.Errorf("hwtree: non-positive DRAM parameter")
	}
	return nil
}

// WorkloadPoint characterizes one workload for the model. All quantities
// are measurable by the functional layer.
type WorkloadPoint struct {
	// MissRate is the table-cache miss rate; each miss costs one insert
	// (new line) and one delete (evicted line), plus a bucket fetch when
	// the table SSD path is modeled.
	MissRate float64
	// CrashRate is the speculative-update crash/replay rate (measured
	// by SpecExecutor; <0.1% for the paper's workloads).
	CrashRate float64
	// LeafCacheHit is the fraction of lookups whose leaf node hits the
	// small on-chip leaf cache (high-locality workloads like Write-H reuse
	// leaves heavily). Nothing here simulates that cache: the Fig. 13
	// runs pass a per-workload calibrated value.
	LeafCacheHit float64
}

// updatesPerOp: one insert plus one evict-delete per miss.
func (w WorkloadPoint) updatesPerOp() float64 { return 2 * w.MissRate }

// Caps is the per-resource throughput bound breakdown, in lookups/s.
type Caps struct {
	Clock    float64
	DRAMPort float64
	Update   float64
	TableSSD float64 // +Inf when not modeled
}

// Bound returns the binding constraint.
func (c Caps) Bound() float64 {
	return math.Min(math.Min(c.Clock, c.DRAMPort), math.Min(c.Update, c.TableSSD))
}

// UpdateLatency returns one update's pipeline residency: search stages,
// leaf read, update stages (reverse traversal), leaf write.
func (p PerfParams) UpdateLatency() float64 {
	cycle := 1 / p.ClockHz
	leaf := p.DRAMLatencyNs*1e-9 + float64(p.LeafBytes)/p.DRAMBandwidth
	return 2*float64(p.Height)*cycle + 2*leaf
}

// OpsPerSecond returns the per-resource caps for workload w with
// concurrent update width w (1 = single-update tree).
func (p PerfParams) OpsPerSecond(wl WorkloadPoint, width int) (Caps, error) {
	if err := p.Validate(); err != nil {
		return Caps{}, err
	}
	if width < 1 {
		return Caps{}, fmt.Errorf("hwtree: width %d < 1", width)
	}
	caps := Caps{Clock: p.ClockHz, TableSSD: math.Inf(1), Update: math.Inf(1)}

	lookupNs := p.LookupPortNs * p.RowMissFactor * (1 - wl.LeafCacheHit)
	updateNs := p.UpdatePortNs * p.RowMissFactor
	perOpNs := lookupNs + wl.updatesPerOp()*updateNs
	if perOpNs > 0 {
		caps.DRAMPort = 1e9 / perOpNs
	} else {
		caps.DRAMPort = math.Inf(1)
	}

	if upo := wl.updatesPerOp(); upo > 0 {
		updRate := float64(width) / p.UpdateLatency() * (1 - wl.CrashRate)
		caps.Update = updRate / upo
	}

	if p.TableSSDBandwidth > 0 && wl.MissRate > 0 {
		caps.TableSSD = p.TableSSDBandwidth / (wl.MissRate * float64(p.BucketBytes))
	}
	return caps, nil
}

// Throughput returns the modeled data-reduction throughput in bytes/s.
func (p PerfParams) Throughput(wl WorkloadPoint, width int) (float64, Caps, error) {
	caps, err := p.OpsPerSecond(wl, width)
	if err != nil {
		return 0, Caps{}, err
	}
	return caps.Bound() * float64(p.ChunkBytes), caps, nil
}
