package main

import (
	"fmt"
	"sort"
	"syscall"

	"fidr"
	"fidr/internal/blockcomp"
	"fidr/internal/core"
	"fidr/internal/experiments"
	"fidr/internal/trace"
)

// workloadSpec is one benchmark workload. Names are fixed: later issues
// cite them, and BENCHMARK.json lists the ones marked Driver.
type workloadSpec struct {
	Name string
	// Trace is the Table 3 trace handed to experiments.WorkloadParams.
	Trace string
	// IOs is the request count of one pass.
	IOs int
	// Clients is the number of closed-loop callers (queue depth 1 each).
	Clients int
	// Wire drives the stack through proto over loopback TCP instead of
	// calling the server in-process.
	Wire bool
	// Durable backs both SSDs with files and attaches an fsynced WAL.
	Durable bool
	// Driver lists the workload in BENCHMARK.json. durable-m is not listed:
	// its clocked metrics follow the host's disk, which on the shared box
	// moves in phases of minutes (142 to 330 MB/s for one commit within half
	// an hour while write-h held 450 to 540), so ten launches cannot hold the
	// contract's widest bound (25 %). It runs in the full report and is
	// judged over alternating pairs with -compare.
	Driver bool
	Why    string
}

// The pass sizes are half the issue's (120 000, 60 000 on the wire) except
// read-mixed, so that a run of at least seven passes, three set-ups and
// the build check fits the driver's ~28 s per invocation; the pass count
// is never cut below seven. Every in-process pass still times 60 000
// requests of each kind it has, so a p99 has 600 samples beyond it.
var workloads = []workloadSpec{
	{Name: "write-h", Trace: "Write-H", IOs: 60000, Clients: 1, Driver: true,
		Why: "88% duplicate writes: nic buffering, SHA-256 and table-cache hits dominate; compression, pack and ssd do little (the bypass workload for compression changes)"},
	{Name: "write-l", Trace: "Write-L", IOs: 60000, Clients: 1, Driver: true,
		Why: "57% unique writes: LZ compression, container pack, data-ssd writes and table-cache misses/evictions dominate; working set exceeds the 2.8% table cache"},
	{Name: "read-mixed", Trace: "Read-Mixed", IOs: 120000, Clients: 1, Driver: true,
		Why: "50% reads beside Write-H writes: lbatable resolve, NIC/pending read hits, ssd reads and decompression; shows a write-path gain that costs reads"},
	{Name: "wire-mixed", Trace: "Read-Mixed", IOs: 30000, Clients: 2, Wire: true, Driver: true,
		Why: "Read-Mixed over loopback TCP through proto, async queue and server with 2 connections: framing, socket round trip and queue hand-off dominate, core kernels do little"},
	{Name: "durable-m", Trace: "Write-M", IOs: 60000, Clients: 1, Durable: true,
		Why: "Write-M on file-backed SSDs with a group-commit fsynced WAL: log and file IO take a large share of wall time; ends with a crash-recovery check"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// request is one materialised client IO. payload indexes the slab: the
// bytes to write, or for a read the bytes the oracle expects back.
type request struct {
	lba     uint64
	payload int32
	write   bool
}

// stream is a fully materialised workload: every request and every
// payload byte exists before any clock starts.
type stream struct {
	spec workloadSpec
	cfg  core.Config
	reqs []request
	// slab holds each distinct payload once, keyed by content seed in
	// first-appearance order; duplicates share bytes. It is mapped
	// outside the Go heap so that the harness's memory does not pace the
	// program's garbage collector.
	slab  []byte
	chunk int
	// final is the oracle after the last request: LBA -> payload index.
	final map[uint64]int32
	// sample is a fixed subset of final's LBAs read back after each pass.
	sample []uint64
	// parts[c] lists, in issue order, the requests connection c sends.
	parts         [][]int32
	writes, reads int
}

// conn partitions requests across connections by LBA, so per-LBA order
// is kept: a round-robin split would let a read overtake the write that
// created its LBA, and that error arrives over the wire as the string
// "core: LBA not found", which errors.Is cannot match.
func (s *stream) conn(lba uint64) int { return int(lba>>6) % s.spec.Clients }

func (s *stream) payload(i int32) []byte {
	off := int(i) * s.chunk
	return s.slab[off : off+s.chunk : off+s.chunk]
}

func (s *stream) payloadBytes() uint64 { return uint64(len(s.reqs)) * uint64(s.chunk) }

func (s *stream) close() {
	if s.slab != nil {
		_ = syscall.Munmap(s.slab) // anonymous mapping: nothing to lose
		s.slab = nil
	}
}

const readBackSample = 1024

// materialise generates the request stream and payload slab for w.
// seed overrides the trace's own seed, so the program under test sees
// only generated inputs.
func materialise(w workloadSpec, ios int, seed int64) (*stream, error) {
	cfg, err := experiments.ConfigFor(fidr.FIDRFull, ios)
	if err != nil {
		return nil, err
	}
	wp, err := experiments.WorkloadParams(w.Trace, ios, cfg.CacheLines)
	if err != nil {
		return nil, err
	}
	wp.Seed = seed
	gen, err := trace.NewGenerator(wp)
	if err != nil {
		return nil, err
	}
	s := &stream{spec: w, cfg: cfg, chunk: cfg.ChunkSize,
		reqs: make([]request, 0, ios), final: make(map[uint64]int32)}
	index := make(map[uint64]int32) // content seed -> slab index
	var seeds []uint64
	for {
		r, ok := gen.Next()
		if !ok {
			break
		}
		if r.Op == trace.OpWrite {
			pi, seen := index[r.ContentSeed]
			if !seen {
				pi = int32(len(seeds))
				index[r.ContentSeed] = pi
				seeds = append(seeds, r.ContentSeed)
			}
			s.final[r.LBA] = pi
			s.reqs = append(s.reqs, request{lba: r.LBA, payload: pi, write: true})
			s.writes++
			continue
		}
		pi, written := s.final[r.LBA]
		if !written {
			return nil, fmt.Errorf("%s: trace reads LBA %d before any write", w.Name, r.LBA)
		}
		s.reqs = append(s.reqs, request{lba: r.LBA, payload: pi})
		s.reads++
	}
	s.parts = make([][]int32, w.Clients)
	for i, r := range s.reqs {
		c := s.conn(r.lba)
		s.parts[c] = append(s.parts[c], int32(i))
	}
	s.slab, err = syscall.Mmap(-1, 0, len(seeds)*s.chunk,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("%s: map %d-byte payload slab: %w", w.Name, len(seeds)*s.chunk, err)
	}
	sh := blockcomp.NewShaper(wp.CompressRatio)
	for i, cs := range seeds {
		sh.Block(cs, s.payload(int32(i)))
	}
	lbas := make([]uint64, 0, len(s.final))
	for lba := range s.final {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	step := len(lbas)/readBackSample + 1
	for i := 0; i < len(lbas); i += step {
		s.sample = append(s.sample, lbas[i])
	}
	return s, nil
}
