package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fidr"
	"fidr/internal/blockcomp"
	"fidr/internal/core"
	"fidr/internal/proto"
	"fidr/internal/ssd"
)

// store is what a closed-loop client drives: the server itself
// in-process, or a proto connection on the wire workload.
type store interface {
	Write(lba uint64, data []byte) error
	Read(lba uint64) ([]byte, error)
}

type wireClient struct{ c *proto.Client }

func (w wireClient) Write(lba uint64, data []byte) error { return w.c.WriteChunk(lba, data) }
func (w wireClient) Read(lba uint64) ([]byte, error)     { return w.c.ReadChunk(lba) }

// queueDepth is fidrd's default -queue-depth.
const queueDepth = 64

// target is one freshly built system under test, used for one pass.
type target struct {
	srv    *core.Server
	stores []store // one per client
	// finish runs inside the clock: the final Flush in-process; on the
	// wire, closing the connections, the listener and the async front
	// end, whose Close drains the queue and flushes.
	finish func() error
	// release runs outside the clock, in reverse order.
	release []func() error
	tr      *tracer
	wal     *walProbe
}

func (tg *target) cleanup() error {
	var first error
	for i := len(tg.release) - 1; i >= 0; i-- {
		if err := tg.release[i](); err != nil && first == nil {
			first = err
		}
	}
	tg.release = nil
	return first
}

// durableFiles are the three files of a durable volume.
func durableFiles(dir string) (data, table, wal string) {
	return filepath.Join(dir, "data.ssd"), filepath.Join(dir, "table.ssd"), filepath.Join(dir, "wal.log")
}

// openVolumes opens (creating if absent) the file-backed SSD pair the
// way fidrd's -data-file/-table-file do.
func openVolumes(dir string) (data, table *ssd.SSD, err error) {
	dataPath, tablePath, _ := durableFiles(dir)
	dcfg := ssd.Samsung970Pro("data-ssd")
	dcfg.BackingFile = dataPath
	if data, err = ssd.New(dcfg); err != nil {
		return nil, nil, err
	}
	tcfg := ssd.Samsung970Pro("table-ssd")
	tcfg.BackingFile = tablePath
	if table, err = ssd.New(tcfg); err != nil {
		data.Close()
		return nil, nil, err
	}
	return data, table, nil
}

// newTarget builds a fresh system for one pass, outside the clock. dir
// is the pass's private directory, which the caller removes; only the
// durable workload creates it.
func newTarget(st *stream, traced bool, dir string) (tg *target, err error) {
	tg = &target{}
	defer func() {
		if err != nil {
			tg.cleanup()
		}
	}()
	cfg := st.cfg
	if traced {
		tg.tr = newTracer(st)
		cfg.Compressor = &timedCompressor{inner: blockcomp.NewLZ(), t: tg.tr}
	}
	if st.spec.Durable {
		// A fresh volume: whatever an earlier pass left in dir goes first.
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		data, table, err := openVolumes(dir)
		if err != nil {
			return nil, err
		}
		tg.release = append(tg.release, data.Close, table.Close)
		_, _, walPath := durableFiles(dir)
		f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		tg.release = append(tg.release, f.Close)
		tg.wal = &walProbe{f: f, t: tg.tr}
		w, err := core.NewWAL(tg.wal)
		if err != nil {
			return nil, err
		}
		cfg.DataSSD, cfg.TableSSD, cfg.WAL = data, table, w
	}
	if tg.srv, err = core.New(cfg); err != nil {
		return nil, err
	}
	if !st.spec.Wire {
		tg.stores, tg.finish = []store{tg.srv}, tg.srv.Flush
		if traced {
			d := &coreSpans{srv: tg.srv, t: tg.tr}
			tg.stores, tg.finish = []store{d}, d.Flush
		}
		return tg, nil
	}
	// The fidrd composition, in this process: proto listener ->
	// AsyncStore -> Async (one worker owns the server) -> Server.
	var backend fidr.Store = tg.srv
	if traced {
		backend = &coreSpans{srv: tg.srv, t: tg.tr}
	}
	async, err := fidr.NewAsync(backend, queueDepth)
	if err != nil {
		return nil, err
	}
	tg.release = append(tg.release, async.Close) // idempotent
	as, err := fidr.NewAsyncStore(async, cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	var served proto.Store = as
	if traced {
		served = &asyncSpans{as: as, t: tg.tr}
	}
	l, err := proto.Serve(served, "127.0.0.1:0", proto.WithConcurrentStore())
	if err != nil {
		return nil, err
	}
	var conns []*proto.Client
	closeWire := func() error {
		// Every client must close before the listener: Listener.Close
		// waits on open connections and no deadlines exist yet.
		var first error
		for _, c := range conns {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		conns = nil
		if l != nil {
			if err := l.Close(); err != nil && first == nil {
				first = err
			}
			l = nil
		}
		return first
	}
	tg.release = append(tg.release, closeWire)
	for i := 0; i < st.spec.Clients; i++ {
		c, err := proto.Dial(l.Addr().String())
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
		tg.stores = append(tg.stores, wireClient{c})
	}
	tg.finish = func() error {
		if err := closeWire(); err != nil {
			return err
		}
		// The clock stops only after Close returns, so queued work and
		// the final flush are counted.
		return async.Close()
	}
	return tg, nil
}

// client is one closed-loop caller: it sends its next request only when
// the previous one has been answered.
type client struct {
	st   store
	idx  []int32 // its requests, as indexes into the stream
	from int64   // ns since base when the loop started
	ends []int64 // ns since base when request k completed
	// failed counts errors and, when verifying, wrong read bytes.
	failed   int
	firstErr error
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// run issues the client's requests. With verify set every read is
// compared with the oracle (the warm-up pass); timed passes check their
// outputs after the clock stops instead.
func (c *client) run(s *stream, base time.Time, verify bool) {
	c.from = int64(time.Since(base))
	for k, i := range c.idx {
		r := &s.reqs[i]
		if r.write {
			if err := c.st.Write(r.lba, s.payload(r.payload)); err != nil {
				c.fail(fmt.Errorf("write LBA %d: %w", r.lba, err))
			}
		} else {
			data, err := c.st.Read(r.lba)
			if err != nil {
				c.fail(fmt.Errorf("read LBA %d: %w", r.lba, err))
			} else if verify && !bytes.Equal(data, s.payload(r.payload)) {
				c.fail(fmt.Errorf("read LBA %d: bytes differ from the oracle", r.lba))
			}
		}
		c.ends[k] = int64(time.Since(base))
	}
}

// passResult is what one pass over the stream measured.
type passResult struct {
	wall       time.Duration
	cpu        time.Duration // process user+sys over the timed region
	allocBytes uint64
	mallocs    uint64
	// writeLat and readLat are per-request latencies in ns, sorted.
	writeLat, readLat []int64
	stats             core.Stats
	stealTicks        uint64
	attempted, failed int
	notes             []string
	layers            *layerTimes // traced passes only
}

func (p *passResult) note(format string, args ...any) {
	if len(p.notes) < 8 {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

func (p *passResult) failf(format string, args ...any) {
	p.failed++
	p.note(format, args...)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the machine's cumulative stolen time (USER_HZ ticks
// summed over CPUs) from /proc/stat; 0 when it cannot be read.
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}

// runPass drives the whole stream through tg once and checks the
// outputs after the clock has stopped. warm, when non-nil, is the
// warm-up pass the duplicate/unique counts must equal.
func runPass(st *stream, tg *target, verify bool, warm *passResult) *passResult {
	res := &passResult{attempted: len(st.reqs),
		writeLat: make([]int64, 0, st.writes), readLat: make([]int64, 0, st.reads)}
	clients := make([]*client, len(tg.stores))
	for i := range clients {
		clients[i] = &client{st: tg.stores[i], idx: st.parts[i], ends: make([]int64, len(st.parts[i]))}
	}
	base := time.Now()
	if tg.tr != nil {
		base = tg.tr.base // decorators already hold the tracer's base
	}
	steal0 := stealTicks()
	runtime.GC() // every pass starts from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()

	start := time.Since(base)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(st, base, verify)
		}(c)
	}
	wg.Wait()
	err := tg.finish()
	end := time.Since(base)

	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.stealTicks = stealTicks() - steal0
	res.wall = end - start
	res.allocBytes, res.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	if err != nil {
		res.failf("flush/close: %v", err)
	}
	for _, c := range clients {
		res.failed += c.failed
		if c.firstErr != nil {
			res.note("%d failed requests on one connection, first: %v", c.failed, c.firstErr)
		}
		prev := c.from
		for k, i := range c.idx {
			d := c.ends[k] - prev
			if st.reqs[i].write {
				res.writeLat = append(res.writeLat, d)
			} else {
				res.readLat = append(res.readLat, d)
			}
			if tg.tr != nil && st.spec.Wire {
				tg.tr.add(spanRTT, i, prev, c.ends[k])
			}
			prev = c.ends[k]
		}
	}
	slices.Sort(res.writeLat)
	slices.Sort(res.readLat)
	if tg.tr != nil {
		tg.tr.seal()
	}
	checkPass(st, tg, res, warm)
	if tg.tr != nil {
		lt := tg.tr.analyse()
		res.layers = &lt
		if lt.broken > 0 {
			res.failf("%d requests with missing or non-nesting spans", lt.broken)
		}
	}
	return res
}

// checkPass verifies a finished pass from outside the clock: the
// reduction ledger balances exactly, no payload byte crossed host DRAM,
// dedup found what the warm-up pass found, and a sample of LBAs reads
// back byte-exact.
func checkPass(st *stream, tg *target, res *passResult, warm *passResult) {
	s := tg.srv.Stats()
	res.stats = s
	if s.ClientWrites != uint64(st.writes) || s.ClientReads != uint64(st.reads) {
		res.failf("server saw %d writes, %d reads; stream has %d, %d", s.ClientWrites, s.ClientReads, st.writes, st.reads)
	}
	if s.LogicalWriteBytes != s.DedupSavedBytes+s.CompressionSavedBytes+s.StoredBytes {
		res.failf("ledger: logical %d != dedup %d + compression %d + stored %d",
			s.LogicalWriteBytes, s.DedupSavedBytes, s.CompressionSavedBytes, s.StoredBytes)
	}
	if p := tg.srv.Ledger().Snapshot().PayloadBytes; p != 0 {
		res.failf("host DRAM carried %d payload bytes under FIDRFull", p)
	}
	if warm != nil && (s.DuplicateChunks != warm.stats.DuplicateChunks || s.UniqueChunks != warm.stats.UniqueChunks) {
		res.failf("dedup: %d duplicate, %d unique chunks; warm-up pass had %d, %d",
			s.DuplicateChunks, s.UniqueChunks, warm.stats.DuplicateChunks, warm.stats.UniqueChunks)
	}
	res.attempted += len(st.sample)
	for _, lba := range st.sample {
		data, err := tg.srv.Read(lba)
		if err != nil {
			res.failf("read-back LBA %d: %v", lba, err)
		} else if !bytes.Equal(data, st.payload(st.final[lba])) {
			res.failf("read-back LBA %d: bytes differ from the oracle", lba)
		}
	}
}

// durabilityResult reports the crash-recovery check.
type durabilityResult struct {
	recovery          time.Duration
	attempted, failed int
	notes             []string
}

// checkDurability writes the stream to a durable volume, flushes, drops
// the server without a checkpoint, and recovers from only what was made
// durable. A killed process keeps the operating system's page cache, so
// the test itself discards unflushed log bytes: the WAL file is cut back
// to the last length the probe saw fsynced. The SSD backing files stand
// for the devices; the program never fsyncs them and neither does this
// check. Every flushed LBA must then read back byte-exact.
func checkDurability(st *stream, dir string) (*durabilityResult, error) {
	tg, err := newTarget(st, false, dir)
	if err != nil {
		return nil, err
	}
	pass := runPass(st, tg, false, nil)
	out := &durabilityResult{attempted: len(st.final) + 1, failed: pass.failed, notes: pass.notes}
	synced := tg.wal.synced
	// Crash: no checkpoint, the files are closed as they are.
	if err := tg.cleanup(); err != nil {
		return nil, err
	}
	_, _, walPath := durableFiles(dir)
	if err := os.Truncate(walPath, synced); err != nil {
		return nil, err
	}
	data, table, err := openVolumes(dir)
	if err != nil {
		return nil, err
	}
	defer data.Close()
	defer table.Close()
	w, err := core.OpenWALFile(walPath)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	cfg := st.cfg
	cfg.DataSSD, cfg.TableSSD, cfg.WAL = data, table, w
	t0 := time.Now()
	srv, err := core.RecoverServer(cfg)
	out.recovery = time.Since(t0)
	if err != nil {
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("recovery: %v", err))
		return out, nil
	}
	rep, err := srv.Verify()
	if err != nil || !rep.OK() {
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("verify after recovery: err=%v problems=%v", err, rep.Problems))
	}
	for lba, pi := range st.final {
		got, err := srv.Read(lba)
		if err != nil || !bytes.Equal(got, st.payload(pi)) {
			out.failed++
			if len(out.notes) < 8 {
				out.notes = append(out.notes, fmt.Sprintf("recovered LBA %d: err=%v, bytes match=%v", lba, err, err == nil))
			}
		}
	}
	return out, nil
}
