package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and bounds; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	Bound float64 `json:"bound,omitempty"`
	// SeedBound, when set, replaces Bound in a -compare whose reports all
	// carry one seed: the metric then moves only with the program, not
	// with the inputs a seed happens to draw.
	SeedBound float64 `json:"same_seed_bound,omitempty"`
	// Kind says where the number comes from: "measured" (a clock, rusage
	// or the allocator), "counted" (a counter that repeats exactly per
	// seed with one client) or "model" (a constant of the paper's cost
	// model; such names carry the model. prefix so a constant is never
	// read as an observation).
	Kind string `json:"kind"`
	// Workloads limits the metric to the named workloads; empty means
	// all. A metric that does not apply to a workload is left out of that
	// workload's report, never reported as 0.
	Workloads []string `json:"workloads,omitempty"`
	// Driver marks the end-to-end metrics BENCHMARK.json lists: the ones
	// that exist, and are never 0, on every workload.
	Driver bool `json:"driver,omitempty"`
}

var readWorkloads = []string{"read-mixed", "wire-mixed"}

// The bounds are wider than the issue proposed: the driver draws a new
// seed for every run and measures on a 2-vCPU box whose hypervisor takes
// a varying share of the machine, and a metric must hold its bound
// against that spread (the contract asks for three times the spread
// seen). They were widened once, with the acceptance runs in README.md as
// evidence. The allocation and reduction metrics repeat to four digits
// for one seed, so a same-seed -compare holds them to the issue's bounds.
var endToEnd = []metricDef{
	{Name: "throughput_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25, Kind: "measured", Driver: true},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.20, Kind: "measured", Workloads: []string{"wire-mixed"}},
	{Name: "write_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Kind: "measured", Driver: true},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.20, Kind: "measured", Workloads: readWorkloads},
	// On wire-mixed the read p99 has 150 samples beyond it per pass and its
	// per-launch medians spread by 40 % over ten launches of one commit
	// (results/pairs): it cannot hold a bound there, so it is a per-layer
	// number on that workload (client.read_p99_us).
	{Name: "read_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Kind: "measured", Workloads: []string{"read-mixed"}},
	{Name: "cpu_ns_per_byte", Unit: "ns/B", Better: "lower", Bound: 0.25, Kind: "measured", Driver: true},
	{Name: "alloc_bytes_per_byte", Unit: "B/B", Better: "lower", Bound: 0.05, SeedBound: 0.02, Kind: "measured", Driver: true},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05, SeedBound: 0.02, Kind: "measured", Driver: true},
	{Name: "reduction_ratio", Unit: "B/B", Better: "lower", Bound: 0.15, SeedBound: 0.01, Kind: "counted", Driver: true},
	{Name: "failed_ops_share", Unit: "ratio", Better: "lower", Bound: 0, Kind: "counted"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "measured", Driver: true},
}

var (
	wireOnly    = []string{"wire-mixed"}
	durableOnly = []string{"durable-m"}
)

var perLayer = []metricDef{
	// Entry-depth spans: proto.rtt > async.call > core.call per request.
	{Name: "proto.rtt_p50_us", Unit: "us", Better: "lower", Kind: "measured", Workloads: wireOnly},
	{Name: "proto.rtt_p999_us", Unit: "us", Better: "lower", Kind: "measured", Workloads: wireOnly},
	{Name: "proto.self_ns_per_op", Unit: "ns", Better: "lower", Kind: "measured", Workloads: wireOnly},
	{Name: "async.self_ns_per_op", Unit: "ns", Better: "lower", Kind: "measured", Workloads: wireOnly},
	{Name: "core.write_ns_per_op", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "core.read_ns_per_op", Unit: "ns", Better: "lower", Kind: "measured", Workloads: readWorkloads},
	{Name: "core.write_p999_us", Unit: "us", Better: "lower", Kind: "measured"},
	{Name: "core.flush_ms", Unit: "ms", Better: "lower", Kind: "measured"},
	{Name: "core.self_ns_per_op", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "core.recovery_ms", Unit: "ms", Better: "lower", Kind: "measured", Workloads: durableOnly},
	// Injected-interface decorators and the layers' public counters.
	{Name: "blockcomp.compress_ns_per_chunk", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "blockcomp.compress_chunks", Unit: "count", Better: "lower", Kind: "counted"},
	{Name: "blockcomp.ratio", Unit: "B/B", Better: "lower", Kind: "counted"},
	{Name: "blockcomp.decompress_ns_per_chunk", Unit: "ns", Better: "lower", Kind: "measured", Workloads: readWorkloads},
	{Name: "blockcomp.decompress_chunks", Unit: "count", Better: "lower", Kind: "counted", Workloads: readWorkloads},
	{Name: "wal.sync_count", Unit: "count", Better: "lower", Kind: "counted", Workloads: durableOnly},
	{Name: "wal.sync_p50_us", Unit: "us", Better: "lower", Kind: "measured", Workloads: durableOnly},
	{Name: "wal.sync_p99_us", Unit: "us", Better: "lower", Kind: "measured", Workloads: durableOnly},
	{Name: "wal.bytes_per_client_byte", Unit: "B/B", Better: "lower", Kind: "counted", Workloads: durableOnly},
	{Name: "wal.device_busy_share", Unit: "ratio", Better: "lower", Kind: "measured", Workloads: durableOnly},
	{Name: "core.dedup_ratio", Unit: "ratio", Better: "higher", Kind: "counted"},
	{Name: "tablecache.hit_ratio", Unit: "ratio", Better: "higher", Kind: "counted"},
	{Name: "tablecache.evictions_per_kop", Unit: "count", Better: "lower", Kind: "counted"},
	{Name: "ssd.table_io_per_kop", Unit: "count", Better: "lower", Kind: "counted"},
	{Name: "ssd.data_write_bytes_per_client_byte", Unit: "B/B", Better: "lower", Kind: "counted"},
	{Name: "ssd.data_reads_per_read_op", Unit: "ratio", Better: "lower", Kind: "counted", Workloads: readWorkloads},
	{Name: "nic.read_hit_ratio", Unit: "ratio", Better: "higher", Kind: "counted", Workloads: readWorkloads},
	{Name: "engine.pending_read_ratio", Unit: "ratio", Better: "higher", Kind: "counted", Workloads: readWorkloads},
	{Name: "engine.containers_sealed", Unit: "count", Better: "lower", Kind: "counted"},
	{Name: "model.host_dram_bytes_per_client_byte", Unit: "B/B", Better: "lower", Kind: "model"},
	{Name: "model.host_cpu_ns_per_client_byte", Unit: "ns/B", Better: "lower", Kind: "model"},
	// Layer replay: each layer's public function timed alone on inputs
	// taken from the same materialised workload.
	{Name: "replay.nic_buffer_ns_per_chunk", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.fingerprint_ns_per_chunk", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.tablecache_lookup_ns", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.tablecache_lookup_allocs", Unit: "count", Better: "lower", Kind: "measured"},
	{Name: "replay.tablecache_insert_ns", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.blockcomp_compress_ns_per_chunk", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.blockcomp_decompress_ns_per_chunk", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.engine_pack_ns_per_chunk", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.ssd_write_ns_per_container", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.ssd_read_ns_per_chunk", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.lbatable_map_ns", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.lbatable_resolve_ns", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.proto_codec_ns_per_frame", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "replay.proto_codec_allocs_per_frame", Unit: "count", Better: "lower", Kind: "measured"},
	{Name: "replay.chunk_cdc_gbps", Unit: "GB/s", Better: "higher", Kind: "measured"},
	{Name: "roofline.ns_per_op", Unit: "ns", Better: "lower", Kind: "measured"},
	{Name: "roofline.glue_ratio", Unit: "ratio", Better: "lower", Kind: "measured"},
	// Harness health, not program metrics.
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Kind: "measured"},
	{Name: "bench.pass_spread_pct", Unit: "%", Better: "lower", Kind: "measured"},
	{Name: "bench.steal_pct", Unit: "%", Better: "lower", Kind: "measured"},
	// End-to-end latencies that exist on some workloads only. The driver's
	// contract wants every end-to-end metric on every workload, so they
	// reach it as per-layer numbers, taken from the untraced passes of the
	// traced run.
	{Name: "client.write_p50_us", Unit: "us", Better: "lower", Kind: "measured", Workloads: wireOnly},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower", Kind: "measured", Workloads: readWorkloads},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower", Kind: "measured", Workloads: readWorkloads},
}

// driverPerLayer is the per-layer list of BENCHMARK.json and of the
// driver's result line: every metric that applies to at least one workload
// the driver runs. The WAL and recovery metrics exist on durable-m only and
// would read 0 on every driver run, so they stay in the full report.
func driverPerLayer() []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		for _, w := range workloads {
			if w.Driver && d.appliesTo(w.Name) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

func (m metricDef) appliesTo(workload string) bool {
	if len(m.Workloads) == 0 {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}
