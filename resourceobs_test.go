package fidr_test

import (
	"slices"
	"strings"
	"testing"

	"fidr"
	"fidr/internal/metrics"
)

// snapshotValue returns the named metric's value from a gatherer
// snapshot (0 when absent).
func snapshotValue(ms []metrics.Metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// writeThrough stands up a server of the given architecture with
// observability on, writes n chunks, and returns the metrics snapshot.
func writeThrough(t *testing.T, arch fidr.Arch, n uint64) []metrics.Metric {
	t.Helper()
	srv, err := fidr.NewServer(fidr.DefaultConfig(arch))
	if err != nil {
		t.Fatal(err)
	}
	view := srv.EnableObservability(nil)
	for i := uint64(0); i < n; i++ {
		if err := srv.Write(i, fidr.MakeChunk(i%16, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	return view.Snapshot()
}

// TestHostDRAMPayloadInvariant pins the paper's headline data-movement
// claim to the accounting ledgers: a FIDR write workload moves zero
// client-payload bytes through host DRAM (only metadata flows), while
// the baseline bounces every payload byte through it.
func TestHostDRAMPayloadInvariant(t *testing.T) {
	const n = 256
	fidrMS := writeThrough(t, fidr.FIDRFull, n)
	baseMS := writeThrough(t, fidr.Baseline, n)

	if got := snapshotValue(fidrMS, "hostmodel.dram_payload_bytes"); got != 0 {
		t.Errorf("FIDR writes charged %v payload bytes to host DRAM, want 0", got)
	}
	if got := snapshotValue(fidrMS, "hostmodel.dram_bytes"); got <= 0 {
		t.Errorf("FIDR hostmodel.dram_bytes = %v; metadata traffic should still flow", got)
	}
	if got := snapshotValue(baseMS, "hostmodel.dram_payload_bytes"); got <= 0 {
		t.Errorf("baseline writes charged %v payload bytes to host DRAM, want > 0", got)
	}
	// The payload share never exceeds the all-traffic total.
	if p, tot := snapshotValue(baseMS, "hostmodel.dram_payload_bytes"), snapshotValue(baseMS, "hostmodel.dram_bytes"); p > tot {
		t.Errorf("payload bytes %v exceed total DRAM bytes %v", p, tot)
	}
}

// TestPCIeMovementByArch checks that the PCIe ledger attributes traffic
// the way each datapath routes it: FIDR moves payload peer-to-peer
// under the switch, the baseline crosses the root complex for all of
// it, and directed per-route counters name the hops.
func TestPCIeMovementByArch(t *testing.T) {
	const n = 256
	fidrMS := writeThrough(t, fidr.FIDRFull, n)
	baseMS := writeThrough(t, fidr.Baseline, n)

	if got := snapshotValue(fidrMS, "pcie.p2p_bytes"); got <= 0 {
		t.Errorf("FIDR pcie.p2p_bytes = %v, want > 0", got)
	}
	if got := snapshotValue(baseMS, "pcie.p2p_bytes"); got != 0 {
		t.Errorf("baseline pcie.p2p_bytes = %v, want 0", got)
	}
	if got := snapshotValue(baseMS, "pcie.root_bytes"); got <= 0 {
		t.Errorf("baseline pcie.root_bytes = %v, want > 0", got)
	}

	var routes, routeBytes float64
	for _, m := range fidrMS {
		if strings.HasPrefix(m.Name, "pcie.route.") && strings.HasSuffix(m.Name, ".bytes") {
			routes++
			routeBytes += m.Value
		}
	}
	if routes == 0 {
		t.Fatal("no pcie.route.<src>_to_<dst>.bytes counters registered")
	}
	// Every transferred byte is attributed to exactly one directed route.
	total := snapshotValue(fidrMS, "pcie.p2p_bytes") + snapshotValue(fidrMS, "pcie.root_bytes")
	if routeBytes != total {
		t.Errorf("route counters sum to %v, p2p+root = %v", routeBytes, total)
	}
}

// TestDeviceAccountingCounters checks the per-device busy/queue plane
// a FIDR write run should populate.
func TestDeviceAccountingCounters(t *testing.T) {
	ms := writeThrough(t, fidr.FIDRFull, 256)
	for _, name := range []string{"nic.busy_ns", "engine.busy_ns", "ssd.data-ssd.busy_ns"} {
		if got := snapshotValue(ms, name); got <= 0 {
			t.Errorf("%s = %v, want > 0", name, got)
		}
	}
	// The queue-depth gauges are the two accelerator stages' (zero after
	// flush drains everything); an SSD command is one synchronous call and
	// publishes none.
	var found []string
	for _, m := range ms {
		if m.Kind == "gauge" && strings.Contains(m.Name, "queue_depth") {
			found = append(found, m.Name)
		}
	}
	slices.Sort(found)
	if want := []string{"engine.queue_depth", "nic.queue_depth"}; !slices.Equal(found, want) {
		t.Errorf("queue_depth gauges %v, want %v", found, want)
	}
}
