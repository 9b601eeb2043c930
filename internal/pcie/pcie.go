// Package pcie models the server's PCIe fabric: a root complex, switches,
// and endpoint devices, with per-link byte ledgers.
//
// FIDR's second idea rides on this fabric (§5.1, §5.6): NICs, Compression
// Engines and data SSDs are grouped under shared switches so unique-chunk
// data flows NIC→Engine→SSD entirely as peer-to-peer transfers below one
// switch, never crossing the root complex or touching host DRAM. The
// baseline instead bounces every byte through host memory. The per-link
// ledgers quantify exactly that difference.
package pcie

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fidr/internal/metrics"
)

// DeviceID names an endpoint.
type DeviceID string

// HostMemory is the built-in endpoint representing host DRAM behind the
// root complex (DMA targets in host memory terminate here).
const HostMemory DeviceID = "host-memory"

// rootName is the internal name of the root complex "switch".
const rootName = "root-complex"

// Link identifies one hop in the fabric.
type Link struct {
	// From and To name the hop ends (device, switch or root complex).
	// Links are recorded in canonical lexical order.
	From, To string
}

func canonical(a, b string) Link {
	if a > b {
		a, b = b, a
	}
	return Link{From: a, To: b}
}

// String implements fmt.Stringer.
func (l Link) String() string { return l.From + "<->" + l.To }

// route is the resolved path of one directed (src, dst) device pair and
// the only byte counter the fabric keeps: per-link and P2P/root totals
// are sums over routes, taken when read.
type route struct {
	series  string // pcie.route.<src>_to_<dst>.bytes
	links   []Link
	viaRoot bool
	bytes   uint64 // guarded by Topology.mu
}

// Topology is the PCIe fabric. Safe for concurrent Transfer calls.
type Topology struct {
	mu       sync.Mutex
	switches map[string]bool
	parent   map[string]string // device or switch -> parent (switch or root)
	// routes: one record per directed pair, resolved on first use.
	routes map[[2]DeviceID]*route
}

// NewTopology returns a fabric with only the root complex and host memory.
func NewTopology() *Topology {
	return &Topology{
		switches: map[string]bool{rootName: true},
		parent:   map[string]string{string(HostMemory): rootName},
		routes:   make(map[[2]DeviceID]*route),
	}
}

// AddSwitch adds a PCIe switch under the root complex.
func (t *Topology) AddSwitch(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if name == rootName || t.switches[name] {
		return fmt.Errorf("pcie: switch %q already exists", name)
	}
	if _, ok := t.parent[name]; ok {
		return fmt.Errorf("pcie: name %q already used by a device", name)
	}
	t.switches[name] = true
	t.parent[name] = rootName
	return nil
}

// AddDevice attaches an endpoint under the named switch, or directly
// under the root complex if switchName is empty.
func (t *Topology) AddDevice(id DeviceID, switchName string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.parent[string(id)]; ok {
		return fmt.Errorf("pcie: device %q already exists", id)
	}
	if switchName == "" {
		switchName = rootName
	}
	if !t.switches[switchName] {
		return fmt.Errorf("pcie: unknown switch %q", switchName)
	}
	t.parent[string(id)] = switchName
	return nil
}

// Route returns the hop sequence from src to dst: up to the common
// ancestor (a switch for P2P siblings, else the root complex) and down.
func (t *Topology) Route(src, dst DeviceID) ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.routeLocked(src, dst)
}

func (t *Topology) routeLocked(src, dst DeviceID) ([]string, error) {
	ps, ok := t.parent[string(src)]
	if !ok {
		return nil, fmt.Errorf("pcie: unknown device %q", src)
	}
	pd, ok := t.parent[string(dst)]
	if !ok {
		return nil, fmt.Errorf("pcie: unknown device %q", dst)
	}
	if src == dst {
		return nil, fmt.Errorf("pcie: transfer from %q to itself", src)
	}
	if ps == pd {
		// Peer-to-peer below one switch (or both under the root).
		return []string{string(src), ps, string(dst)}, nil
	}
	// Up through the root complex.
	path := []string{string(src), ps}
	if ps != rootName {
		path = append(path, rootName)
	}
	if pd != rootName {
		path = append(path, pd)
	}
	path = append(path, string(dst))
	return path, nil
}

// Transfer moves n bytes from src to dst, charging the pair's route. It
// reports whether the transfer was peer-to-peer (did not cross the root
// complex).
func (t *Topology) Transfer(src, dst DeviceID, n uint64) (p2p bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]DeviceID{src, dst}
	r := t.routes[key]
	if r == nil {
		if r, err = t.resolveLocked(src, dst); err != nil {
			return false, err
		}
		t.routes[key] = r
	}
	r.bytes += n
	return !r.viaRoot, nil
}

// resolveLocked builds the route of a pair seen for the first time.
func (t *Topology) resolveLocked(src, dst DeviceID) (*route, error) {
	path, err := t.routeLocked(src, dst)
	if err != nil {
		return nil, err
	}
	// A transfer terminating at host memory crosses the root by
	// definition (host memory hangs off the root complex).
	r := &route{
		series:  "pcie.route." + routeSlug(string(src)) + "_to_" + routeSlug(string(dst)) + ".bytes",
		viaRoot: src == HostMemory || dst == HostMemory,
	}
	for i := 1; i < len(path); i++ {
		r.links = append(r.links, canonical(path[i-1], path[i]))
		if path[i] == rootName {
			r.viaRoot = true
		}
	}
	return r, nil
}

// routeSlug makes a device name safe inside a dotted metric name.
func routeSlug(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}

// Instrument publishes the fabric's ledgers through reg, each derived
// from the per-route counters when reg is read:
//
//	pcie.p2p_bytes                       bytes moved peer-to-peer under switches
//	pcie.root_bytes                      bytes that crossed the root complex
//	pcie.route.<src>_to_<dst>.bytes      bytes per directed device pair (from first use)
//
// The FIDR datapath claim (§5.6) is then scrapeable: under FIDR
// architectures the nic→engine→SSD payload routes accumulate in
// p2p_bytes while root_bytes stays metadata-only.
func (t *Topology) Instrument(reg *metrics.Registry) {
	reg.AttachDerived(func(emit func(name string, v uint64)) {
		_, p2p, root := t.Report()
		emit("pcie.p2p_bytes", p2p)
		emit("pcie.root_bytes", root)
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, r := range t.routes {
			emit(r.series, r.bytes)
		}
	})
}

// LinkBytes returns bytes carried by each link, sorted by link name.
type LinkBytes struct {
	Link  Link
	Bytes uint64
}

// Report returns the per-link ledger plus P2P/root-complex totals.
func (t *Topology) Report() (links []LinkBytes, p2pBytes, rootBytes uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	perLink := make(map[Link]uint64)
	for _, r := range t.routes {
		b := r.bytes
		for _, l := range r.links {
			perLink[l] += b
		}
		if r.viaRoot {
			rootBytes += b
		} else {
			p2pBytes += b
		}
	}
	for l, b := range perLink {
		links = append(links, LinkBytes{Link: l, Bytes: b})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Link.From != links[j].Link.From {
			return links[i].Link.From < links[j].Link.From
		}
		return links[i].Link.To < links[j].Link.To
	})
	return links, p2pBytes, rootBytes
}

// RootComplexBytes returns bytes that crossed the root complex.
func (t *Topology) RootComplexBytes() uint64 {
	_, _, root := t.Report()
	return root
}

// P2PBytes returns bytes moved peer-to-peer under switches.
func (t *Topology) P2PBytes() uint64 {
	_, p2p, _ := t.Report()
	return p2p
}
