package pcie

import (
	"sync"
	"testing"
)

func buildFIDRGroup(t *testing.T) *Topology {
	t.Helper()
	top := NewTopology()
	if err := top.AddSwitch("sw0"); err != nil {
		t.Fatal(err)
	}
	for _, d := range []DeviceID{"nic0", "comp0", "dssd0"} {
		if err := top.AddDevice(d, "sw0"); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.AddDevice("cache-engine", ""); err != nil {
		t.Fatal(err)
	}
	return top
}

func TestAddValidation(t *testing.T) {
	top := NewTopology()
	if err := top.AddSwitch("s"); err != nil {
		t.Fatal(err)
	}
	if err := top.AddSwitch("s"); err == nil {
		t.Error("duplicate switch accepted")
	}
	if err := top.AddDevice("d", "s"); err != nil {
		t.Fatal(err)
	}
	if err := top.AddDevice("d", "s"); err == nil {
		t.Error("duplicate device accepted")
	}
	if err := top.AddDevice("x", "nope"); err == nil {
		t.Error("unknown switch accepted")
	}
	if err := top.AddSwitch("d"); err == nil {
		t.Error("switch name colliding with device accepted")
	}
	if err := top.AddDevice(HostMemory, ""); err == nil {
		t.Error("host memory redefined")
	}
}

func TestP2PUnderSwitch(t *testing.T) {
	top := buildFIDRGroup(t)
	p2p, err := top.Transfer("nic0", "comp0", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !p2p {
		t.Fatal("sibling transfer not P2P")
	}
	if top.P2PBytes() != 4096 || top.RootComplexBytes() != 0 {
		t.Fatalf("ledgers: p2p=%d root=%d", top.P2PBytes(), top.RootComplexBytes())
	}
}

func TestHostBounceCrossesRoot(t *testing.T) {
	top := buildFIDRGroup(t)
	p2p, err := top.Transfer("nic0", HostMemory, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p2p {
		t.Fatal("host transfer marked P2P")
	}
	if top.RootComplexBytes() != 1000 {
		t.Fatalf("root bytes = %d", top.RootComplexBytes())
	}
}

func TestCrossSwitchRoutesThroughRoot(t *testing.T) {
	top := buildFIDRGroup(t)
	if err := top.AddSwitch("sw1"); err != nil {
		t.Fatal(err)
	}
	if err := top.AddDevice("dssd1", "sw1"); err != nil {
		t.Fatal(err)
	}
	route, err := top.Route("comp0", "dssd1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"comp0", "sw0", "root-complex", "sw1", "dssd1"}
	if len(route) != len(want) {
		t.Fatalf("route = %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
	p2p, _ := top.Transfer("comp0", "dssd1", 10)
	if p2p {
		t.Fatal("cross-switch transfer marked P2P")
	}
}

func TestDeviceUnderRootToSibling(t *testing.T) {
	top := buildFIDRGroup(t)
	// cache-engine hangs directly off the root; a transfer to host
	// memory shares the root as parent, so the route is short but it
	// still counts as crossing the root complex.
	p2p, err := top.Transfer("cache-engine", HostMemory, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p2p {
		t.Fatal("root-attached to host-memory should not be P2P")
	}
}

func TestRouteErrors(t *testing.T) {
	top := buildFIDRGroup(t)
	if _, err := top.Route("ghost", "nic0"); err == nil {
		t.Error("unknown src accepted")
	}
	if _, err := top.Route("nic0", "ghost"); err == nil {
		t.Error("unknown dst accepted")
	}
	if _, err := top.Route("nic0", "nic0"); err == nil {
		t.Error("self transfer accepted")
	}
}

func TestLinkLedger(t *testing.T) {
	top := buildFIDRGroup(t)
	top.Transfer("nic0", "comp0", 100)
	top.Transfer("comp0", "dssd0", 50)
	links, p2p, root := top.Report()
	if p2p != 150 || root != 0 {
		t.Fatalf("totals: p2p=%d root=%d", p2p, root)
	}
	var nicLink, compLink, ssdLink uint64
	for _, lb := range links {
		switch lb.Link.String() {
		case "nic0<->sw0":
			nicLink = lb.Bytes
		case "comp0<->sw0":
			compLink = lb.Bytes
		case "dssd0<->sw0":
			ssdLink = lb.Bytes
		}
	}
	if nicLink != 100 || compLink != 150 || ssdLink != 50 {
		t.Fatalf("link bytes nic=%d comp=%d ssd=%d", nicLink, compLink, ssdLink)
	}
	// Reading the ledger does not disturb it: a transfer on an already
	// resolved route keeps accumulating, in the opposite direction too.
	if _, err := top.Transfer("nic0", "comp0", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := top.Transfer("comp0", "nic0", 1); err != nil {
		t.Fatal(err)
	}
	if _, p2p, root = top.Report(); p2p != 152 || root != 0 {
		t.Fatalf("totals after report: p2p=%d root=%d", p2p, root)
	}
}

func TestConcurrentTransfers(t *testing.T) {
	top := buildFIDRGroup(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				top.Transfer("nic0", "comp0", 10)
			}
		}()
	}
	wg.Wait()
	if top.P2PBytes() != 8*500*10 {
		t.Fatalf("p2p bytes = %d", top.P2PBytes())
	}
}

func BenchmarkTransferP2P(b *testing.B) {
	top := NewTopology()
	top.AddSwitch("sw0")
	top.AddDevice("nic0", "sw0")
	top.AddDevice("comp0", "sw0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := top.Transfer("nic0", "comp0", 4096); err != nil {
			b.Fatal(err)
		}
	}
}
