// Package hostmodel accounts host-side resource consumption — memory
// bandwidth by datapath and CPU time by software component — and projects
// it onto a socket model.
//
// This is the measurement layer behind the paper's motivation and results:
// Table 1 (memory-bandwidth breakdown), Table 2 / Figure 5b (CPU
// breakdown), Figures 4-5 (projected socket limits) and Figures 11-12-14
// (FIDR vs baseline). The functional servers charge the ledger with
// *actual byte counts* from their datapaths and with counts of CPU events
// (a tree lookup, a table-SSD command, a client read, ...); a snapshot
// prices the counts on read with the one calibrated table in params.go.
// The projection then normalizes per client byte and scales to a target
// throughput, exactly as the paper measures at 5 and 6.9 GB/s and projects
// linearly to 75 GB/s.
package hostmodel

import (
	"fmt"

	"fidr/internal/metrics"
)

// Path labels host-memory traffic with its datapath (Table 1 rows).
type Path int

const (
	// PathNICHost is NIC <-> host memory DMA (client data buffering).
	PathNICHost Path = iota
	// PathPredictor is the unique-chunk predictor's buffer reads.
	PathPredictor
	// PathHostFPGA is host memory <-> FPGA accelerator DMA.
	PathHostFPGA
	// PathTableCache is table-cache management traffic: bucket scans,
	// miss fills from table SSDs, dirty-line flushes.
	PathTableCache
	// PathHostSSD is host memory <-> data SSD DMA.
	PathHostSSD

	numPaths
)

// pathRows gives each path its Table 1 label and its metric-name segment.
var pathRows = [numPaths]struct{ label, slug string }{
	PathNICHost:    {"NIC <-> host memory", "nic_host"},
	PathPredictor:  {"Host memory (unique prediction)", "predictor"},
	PathHostFPGA:   {"Host memory <-> FPGAs", "host_fpga"},
	PathTableCache: {"Table cache management", "table_cache"},
	PathHostSSD:    {"Host memory <-> data SSD", "host_ssd"},
}

// String implements fmt.Stringer, matching Table 1's row labels.
func (p Path) String() string {
	if uint(p) < uint(numPaths) {
		return pathRows[p].label
	}
	return fmt.Sprintf("Path(%d)", int(p))
}

// Slug returns the path's metric-name segment.
func (p Path) Slug() string { return pathRows[p].slug }

// Paths lists all datapaths in Table 1 order.
func Paths() []Path {
	return []Path{PathNICHost, PathPredictor, PathHostFPGA, PathTableCache, PathHostSSD}
}

// Component labels CPU time with its software component (Figure 5b and
// Table 2 rows).
type Component int

const (
	// CompPredictor is the unique-chunk predictor (baseline only).
	CompPredictor Component = iota
	// CompBatchSched is accelerator batch scheduling.
	CompBatchSched
	// CompDMAMgmt is DMA descriptor/completion handling for host-bounced
	// device transfers.
	CompDMAMgmt
	// CompTreeIndex is software table-cache tree indexing.
	CompTreeIndex
	// CompTableSSDIO is the table-SSD software IO stack.
	CompTableSSDIO
	// CompTableContent is scanning cached bucket contents.
	CompTableContent
	// CompTableReplace is LRU/free-list replacement management.
	CompTableReplace
	// CompDataSSDIO is the data-SSD software IO stack.
	CompDataSSDIO
	// CompDeviceMgr is the FIDR device manager (inter-device
	// orchestration; FIDR only).
	CompDeviceMgr
	// CompLBATable is LBA-PBA table lookups/updates.
	CompLBATable
	// CompProtocol is client request handling: block-layer routing,
	// response assembly, checksum/copy work. Present in both
	// architectures; classified as real work, not management overhead.
	CompProtocol

	numComponents
)

// componentRows gives each component its Figure 5b / Table 2 label, its
// metric-name segment and its Figure 5b class: memory/IO management and
// accelerator scheduling, or the "real work" (content access, LBA mapping,
// request handling) the server must do regardless of architecture.
var componentRows = [numComponents]struct {
	label, slug string
	mgmt        bool
}{
	CompPredictor:    {"unique-chunk predictor", "predictor", true},
	CompBatchSched:   {"batch scheduling", "batch_sched", true},
	CompDMAMgmt:      {"DMA management", "dma_mgmt", true},
	CompTreeIndex:    {"table cache tree indexing", "tree_index", true},
	CompTableSSDIO:   {"table SSD IO stack", "table_ssd_io", true},
	CompTableContent: {"table cache content access", "table_content", false},
	CompTableReplace: {"cache replacement (LRU/free lists)", "table_replace", true},
	CompDataSSDIO:    {"data SSD IO stack", "data_ssd_io", true},
	CompDeviceMgr:    {"FIDR device manager", "device_mgr", true},
	CompLBATable:     {"LBA-PBA table", "lba_table", false},
	CompProtocol:     {"request handling (protocol/block layer)", "protocol", false},
}

// String implements fmt.Stringer.
func (c Component) String() string {
	if uint(c) < uint(numComponents) {
		return componentRows[c].label
	}
	return fmt.Sprintf("Component(%d)", int(c))
}

// Slug returns the component's metric-name segment.
func (c Component) Slug() string { return componentRows[c].slug }

// Components lists all CPU components.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// IsManagementOverhead reports whether c counts as memory/IO management
// or accelerator scheduling in Figure 5b's two-bar breakdown.
func (c Component) IsManagementOverhead() bool { return componentRows[c].mgmt }

// Ledger accumulates charges: bytes per path and counts per CPU event.
// Safe for concurrent use.
type Ledger struct {
	mem                       [numPaths]metrics.Counter
	events                    [numEvents]metrics.Counter
	clientBytes, payloadBytes metrics.Counter
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Instrument publishes the ledger's own counters through reg:
//
//	hostmodel.dram_bytes            total host-DRAM traffic, all paths (summed on read)
//	hostmodel.dram_payload_bytes    the client-payload share of it
//	hostmodel.dram.<path>.bytes     per-datapath traffic (Table 1 rows)
//	hostmodel.cpu_ns                total modeled host CPU time (priced on read)
//	hostmodel.cpu.<component>.ns    per-component CPU time (Table 2 rows, priced on read)
//	hostmodel.client_bytes          client-visible IO (normalization base)
//
// dram_payload_bytes turns the paper's headline claim into a scrapeable
// invariant: a FIDR-mode server moving client data NIC→engine→SSD
// peer-to-peer keeps it at zero while the baseline charges every payload
// byte (twice or more) to host DRAM.
func (l *Ledger) Instrument(reg *metrics.Registry) {
	for _, p := range Paths() {
		reg.AttachCounter("hostmodel.dram."+p.Slug()+".bytes", &l.mem[p])
	}
	reg.AttachCounter("hostmodel.dram_payload_bytes", &l.payloadBytes)
	reg.AttachCounter("hostmodel.client_bytes", &l.clientBytes)
	reg.AttachDerived(func(emit func(name string, v uint64)) {
		s := l.Snapshot()
		emit("hostmodel.dram_bytes", s.TotalMemBytes())
		emit("hostmodel.cpu_ns", s.TotalCPUNanos())
		for _, c := range Components() {
			emit("hostmodel.cpu."+c.Slug()+".ns", s.CPUNanos[c])
		}
	})
}

// Mem charges n bytes of host-memory traffic to path p.
func (l *Ledger) Mem(p Path, n uint64) { l.mem[p].Add(n) }

// MemPayload charges n bytes of host-memory traffic to path p and
// additionally classifies it as client payload (the data itself moving
// through host DRAM, as opposed to hashes, flags and table metadata).
func (l *Ledger) MemPayload(p Path, n uint64) {
	l.mem[p].Add(n)
	l.payloadBytes.Add(n)
}

// Count records n occurrences of event e. The ledger keeps counts only;
// a snapshot prices them.
func (l *Ledger) Count(e Event, n uint64) { l.events[e].Add(n) }

// Client records n bytes of client-visible IO (the normalization base).
func (l *Ledger) Client(n uint64) { l.clientBytes.Add(n) }

// Snapshot is an immutable copy of ledger totals.
type Snapshot struct {
	MemBytes [numPaths]uint64
	// Events is the raw count of each CPU event.
	Events [numEvents]uint64
	// CPUNanos is Events priced and summed per component (see Priced).
	CPUNanos    [numComponents]uint64
	ClientBytes uint64
	// PayloadBytes is the client-payload share of total memory traffic
	// (charged via MemPayload).
	PayloadBytes uint64
}

// Add sums o into s field by field (the ledgers of independent
// sockets, e.g. a cluster's groups). Pricing is linear, so the summed
// CPUNanos are the summed Events priced.
func (s *Snapshot) Add(o Snapshot) {
	for i := range s.MemBytes {
		s.MemBytes[i] += o.MemBytes[i]
	}
	for i := range s.Events {
		s.Events[i] += o.Events[i]
	}
	for i := range s.CPUNanos {
		s.CPUNanos[i] += o.CPUNanos[i]
	}
	s.ClientBytes += o.ClientBytes
	s.PayloadBytes += o.PayloadBytes
}

// Priced returns s with CPUNanos recomputed from Events at prices c: each
// component's time is the sum, over its events, of count × price.
func (s Snapshot) Priced(c CostParams) Snapshot {
	s.CPUNanos = [numComponents]uint64{}
	for e, n := range s.Events {
		s.CPUNanos[eventRows[e].comp] += n * c[e]
	}
	return s
}

// Snapshot copies the current totals, priced at DefaultCosts.
func (l *Ledger) Snapshot() Snapshot {
	var s Snapshot
	for i := range l.mem {
		s.MemBytes[i] = l.mem[i].Value()
	}
	for i := range l.events {
		s.Events[i] = l.events[i].Value()
	}
	s.ClientBytes = l.clientBytes.Value()
	s.PayloadBytes = l.payloadBytes.Value()
	return s.Priced(DefaultCosts())
}

// TotalMemBytes sums memory traffic over all paths.
func (s Snapshot) TotalMemBytes() uint64 {
	var t uint64
	for _, b := range s.MemBytes {
		t += b
	}
	return t
}

// TotalCPUNanos sums CPU time over all components.
func (s Snapshot) TotalCPUNanos() uint64 {
	var t uint64
	for _, n := range s.CPUNanos {
		t += n
	}
	return t
}

// MemPerClientByte is bytes of host-memory traffic per client byte.
func (s Snapshot) MemPerClientByte() float64 {
	if s.ClientBytes == 0 {
		return 0
	}
	return float64(s.TotalMemBytes()) / float64(s.ClientBytes)
}

// CPUNanosPerClientByte is CPU-nanoseconds per client byte.
func (s Snapshot) CPUNanosPerClientByte() float64 {
	if s.ClientBytes == 0 {
		return 0
	}
	return float64(s.TotalCPUNanos()) / float64(s.ClientBytes)
}

// MemBWAt projects required host memory bandwidth (bytes/s) at a client
// throughput (bytes/s), assuming the measured per-byte intensity scales
// linearly — the paper's two-point linear projection.
func (s Snapshot) MemBWAt(throughput float64) float64 {
	return s.MemPerClientByte() * throughput
}

// CoresAt projects required CPU cores at a client throughput: one core
// provides 1e9 ns of CPU time per second.
func (s Snapshot) CoresAt(throughput float64) float64 {
	return s.CPUNanosPerClientByte() * throughput / 1e9
}

// MemFraction returns path p's share of total memory traffic.
func (s Snapshot) MemFraction(p Path) float64 {
	t := s.TotalMemBytes()
	if t == 0 {
		return 0
	}
	return float64(s.MemBytes[p]) / float64(t)
}

// CPUFraction returns component c's share of total CPU time.
func (s Snapshot) CPUFraction(c Component) float64 {
	t := s.TotalCPUNanos()
	if t == 0 {
		return 0
	}
	return float64(s.CPUNanos[c]) / float64(t)
}

// ManagementCPUFraction returns the share of CPU spent on memory/IO
// management and accelerator scheduling (Figure 5b's headline).
func (s Snapshot) ManagementCPUFraction() float64 {
	t := s.TotalCPUNanos()
	if t == 0 {
		return 0
	}
	var m uint64
	for i := Component(0); i < numComponents; i++ {
		if i.IsManagementOverhead() {
			m += s.CPUNanos[i]
		}
	}
	return float64(m) / float64(t)
}
