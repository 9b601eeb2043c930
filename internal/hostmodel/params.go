package hostmodel

// Event is one counted unit of host-CPU work. The ledger counts events;
// eventRows gives each its component and its calibrated price.
type Event int

const (
	// EvPredictorChunk: CIDR's software unique-chunk predictor —
	// sampled fingerprinting plus filter lookup over one buffered chunk.
	EvPredictorChunk Event = iota
	// EvBatchSchedChunk: grouping one chunk into an FPGA batch.
	EvBatchSchedChunk
	// EvDMAChunk: descriptor setup + completion handling for one 4-KB
	// chunk bounced through host memory.
	EvDMAChunk
	// EvDMABatch: one batch's device doorbells (FIDR's metadata-only
	// interactions are charged per batch, not per chunk).
	EvDMABatch
	// EvTreeLookup: one software B+-tree lookup over a multi-GB index
	// (cache-missing pointer chases).
	EvTreeLookup
	// EvTreeUpdate: one software B+-tree insert or delete.
	EvTreeUpdate
	// EvTableSSDIO: submitting + completing one table-SSD command through
	// the kernel NVMe stack.
	EvTableSSDIO
	// EvBucketScanEntry: comparing one 38-byte table entry during a
	// cached-bucket scan.
	EvBucketScanEntry
	// EvLRUAccess: cache replacement bookkeeping for one access.
	EvLRUAccess
	// EvDataSSDIO: one data-SSD command through the kernel stack.
	EvDataSSDIO
	// EvDeviceMgrChunk: FIDR device-manager work for one chunk (bucket
	// index computation, routing status flags between devices).
	EvDeviceMgrChunk
	// EvLBATableOp: one LBA-PBA table lookup or update.
	EvLBATableOp
	// EvProtocolWrite: request handling for one client write — cheap,
	// since writes batch and ack at the buffer.
	EvProtocolWrite
	// EvProtocolRead: request handling for one client read — synchronous
	// per-4-KB completion, response assembly and data integrity work, paid
	// by baseline and FIDR alike (it is why Read-Mixed keeps substantial
	// CPU in §7.5).
	EvProtocolRead

	numEvents
)

// CostParams prices each event in nanoseconds of host-CPU time.
type CostParams [numEvents]uint64

// eventRows is the one price table: each event's component and its
// calibrated price in nanoseconds of host-CPU time on a Xeon E5-class
// core (the paper's E5-2650 v4 testbed). The prices are calibrated so the
// baseline's projected totals hit the paper's measured anchors: ~67 cores
// and 317 GB/s of memory bandwidth for 75 GB/s of write-only data
// reduction, with the Figure 5b breakdown (52.4% table-cache management,
// 32.7% predictor) and the Table 2 intra-table-cache split (43.9% tree
// indexing, 24.7% table-SSD stack, 6.3% content access, 1.0%
// replacement). EXPERIMENTS.md records paper-vs-model per figure.
var eventRows = [numEvents]struct {
	comp Component
	ns   uint64
}{
	EvPredictorChunk:  {CompPredictor, 1196},
	EvBatchSchedChunk: {CompBatchSched, 150},
	EvDMAChunk:        {CompDMAMgmt, 395},
	EvDMABatch:        {CompDMAMgmt, 2000},
	EvTreeLookup:      {CompTreeIndex, 620},
	EvTreeUpdate:      {CompTreeIndex, 1300},
	EvTableSSDIO:      {CompTableSSDIO, 2200},
	EvBucketScanEntry: {CompTableContent, 3},
	EvLRUAccess:       {CompTableReplace, 25},
	EvDataSSDIO:       {CompDataSSDIO, 2200},
	EvDeviceMgrChunk:  {CompDeviceMgr, 470},
	EvLBATableOp:      {CompLBATable, 60},
	EvProtocolWrite:   {CompProtocol, 500},
	EvProtocolRead:    {CompProtocol, 1500},
}

// DefaultCosts returns the calibrated price of every event.
func DefaultCosts() CostParams {
	var c CostParams
	for e, r := range eventRows {
		c[e] = r.ns
	}
	return c
}

// Socket models one CPU socket of the paper's target platform.
type Socket struct {
	// MemBW is theoretical DRAM bandwidth in bytes/s (8 channels,
	// 170 GB/s on the paper's high-end reference socket).
	MemBW float64
	// Cores is the core count (22-core Xeon E5-4669 v4).
	Cores int
	// PCIeBW is theoretical PCIe IO bandwidth in bytes/s (128 GB/s).
	PCIeBW float64
	// IOEfficiency derates PCIe for DMA overheads; the paper targets
	// 60% (75 of 128 GB/s).
	IOEfficiency float64
}

// PaperSocket returns the reference socket of §3.2 and §7.5.
func PaperSocket() Socket {
	return Socket{MemBW: 170e9, Cores: 22, PCIeBW: 128e9, IOEfficiency: 0.6}
}

// TargetThroughput is the per-socket goal: 60% of 1-Tbps PCIe = 75 GB/s.
func (s Socket) TargetThroughput() float64 { return s.PCIeBW * s.IOEfficiency }

// MaxThroughput returns the highest client throughput (bytes/s) the
// socket sustains for a workload with the snapshot's per-byte
// intensities, additionally bounded by deviceCap (accelerator bound in
// bytes/s; pass 0 for none). This is the Figure 14 projection.
func (s Socket) MaxThroughput(snap Snapshot, deviceCap float64) float64 {
	limit := s.TargetThroughput()
	if mpb := snap.MemPerClientByte(); mpb > 0 {
		if t := s.MemBW / mpb; t < limit {
			limit = t
		}
	}
	if npb := snap.CPUNanosPerClientByte(); npb > 0 {
		if t := float64(s.Cores) * 1e9 / npb; t < limit {
			limit = t
		}
	}
	if deviceCap > 0 && deviceCap < limit {
		limit = deviceCap
	}
	return limit
}
