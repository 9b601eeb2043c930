// Package ssd simulates NVMe solid-state drives: a sparse page store with
// bit-exact contents, an access-time model and IO counters. A command is
// one synchronous call (Write, Read, ReadInto) on the caller's buffer.
// An in-memory device keeps its pages off the Go heap, in 2-MiB slabs
// mapped on first touch; the heap holds only their index.
//
// FIDR uses two SSD roles (§2.1.3, §6.1):
//
//   - data SSDs, receiving large sequential container writes and serving
//     random compressed-chunk reads.
//   - table SSDs, serving random small (4-KB bucket) reads/writes for
//     table-cache misses.
//
// Where a device's NVMe queues live — host software or the Cache
// HW-Engine (§6.1) — changes only who pays for each IO, so that placement
// is the table cache's Mode, not a property of the device.
package ssd

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fidr/internal/metrics"
)

// Config describes one simulated SSD.
type Config struct {
	// Name identifies the device in reports.
	Name string
	// CapacityBytes bounds the addressable space.
	CapacityBytes uint64
	// PageSize is the internal allocation granularity (4096 typical).
	PageSize int
	// ReadLatency / WriteLatency model per-command flash access time.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// ReadBW / WriteBW are sustained transfer bandwidths in bytes/s.
	ReadBW  float64
	WriteBW float64
	// BackingFile, when set, persists device contents to a sparse file
	// on the host filesystem instead of process memory — state survives
	// restarts, enabling durable fidrd volumes and offline fsck.
	BackingFile string
}

// Samsung970Pro returns parameters resembling the paper's data/table SSDs
// (Samsung 970 Pro 1 TB).
func Samsung970Pro(name string) Config {
	return Config{
		Name:          name,
		CapacityBytes: 1 << 40,
		PageSize:      4096,
		ReadLatency:   85 * time.Microsecond,
		WriteLatency:  30 * time.Microsecond,
		ReadBW:        3.5e9,
		WriteBW:       2.7e9,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CapacityBytes == 0 {
		return fmt.Errorf("ssd %q: zero capacity", c.Name)
	}
	if c.PageSize <= 0 {
		return fmt.Errorf("ssd %q: invalid page size %d", c.Name, c.PageSize)
	}
	if c.ReadBW <= 0 || c.WriteBW <= 0 {
		return fmt.Errorf("ssd %q: bandwidths must be positive", c.Name)
	}
	return nil
}

// ErrClosed is returned, wrapped, by every command on a closed device.
var ErrClosed = errors.New("device closed")

// Stats aggregates device activity.
type Stats struct {
	ReadIOs      uint64
	WriteIOs     uint64
	ReadBytes    uint64
	WriteBytes   uint64
	BusyDuration time.Duration
}

// SSD is one simulated device. Safe for concurrent use.
type SSD struct {
	cfg Config

	mu    sync.RWMutex
	store backing // nil once closed

	reads, writes         metrics.Counter
	readBytes, writeBytes metrics.Counter
	// busyNanos is modeled device busy time; its windowed rate is the
	// device's duty cycle.
	busyNanos metrics.Counter
	// obsAccess is the access_ns histogram; nil until Instrument.
	obsAccess *metrics.Histogram

	// fault injection (tests): IOs to let pass, then IOs to fail, and the
	// error.
	faultMu               sync.Mutex
	skipReads, skipWrites int
	failReads, failWrites int
	faultErr              error
}

// New creates an SSD from cfg. With a BackingFile, contents live in a
// sparse file and survive process restarts; Close the device to release
// the file handle.
func New(cfg Config) (*SSD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var store backing
	if cfg.BackingFile != "" {
		fs, err := newFileBacking(cfg.BackingFile, cfg.PageSize)
		if err != nil {
			return nil, fmt.Errorf("ssd %q: %w", cfg.Name, err)
		}
		store = fs
	} else {
		store = newMemBacking(cfg.PageSize)
	}
	return &SSD{cfg: cfg, store: store}, nil
}

// Close releases the device's backing resources: the file handle of a
// file-backed device, the page slabs of an in-memory one. Every later
// command fails with ErrClosed; closing again does nothing.
func (s *SSD) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return nil
	}
	err := s.store.close()
	s.store = nil
	return err
}

// MustNew is New panicking on error, for constant configs.
func MustNew(cfg Config) *SSD {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the device configuration.
func (s *SSD) Config() Config { return s.cfg }

// Instrument publishes the device's counters through reg as
// "ssd.<name>.*" and starts an "ssd.<name>.access_ns" histogram of
// modeled per-command access times. Call once.
func (s *SSD) Instrument(reg *metrics.Registry) {
	p := "ssd." + s.cfg.Name + "."
	reg.AttachCounter(p+"read_ios", &s.reads)
	reg.AttachCounter(p+"write_ios", &s.writes)
	reg.AttachCounter(p+"read_bytes", &s.readBytes)
	reg.AttachCounter(p+"write_bytes", &s.writeBytes)
	reg.AttachCounter(p+"busy_ns", &s.busyNanos)
	s.obsAccess = reg.Histogram(p + "access_ns")
}

// InjectFaults makes the next nReads read commands and nWrites write
// commands fail with err (media-error simulation for failure-path tests).
func (s *SSD) InjectFaults(nReads, nWrites int, err error) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	s.failReads, s.failWrites, s.faultErr = nReads, nWrites, err
	s.skipReads, s.skipWrites = 0, 0
}

// InjectFaultAt makes only the nthRead-th read command and the nthWrite-th
// write command from now fail with err (0 arms none), so a test can walk a
// fault across every IO of an operation.
func (s *SSD) InjectFaultAt(nthRead, nthWrite int, err error) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	s.skipReads, s.failReads = max(nthRead-1, 0), min(max(nthRead, 0), 1)
	s.skipWrites, s.failWrites = max(nthWrite-1, 0), min(max(nthWrite, 0), 1)
	s.faultErr = err
}

// takeFault consumes one injected fault if armed.
func (s *SSD) takeFault(write bool) error {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	skip, fail := &s.skipReads, &s.failReads
	if write {
		skip, fail = &s.skipWrites, &s.failWrites
	}
	switch {
	case *fail == 0:
		return nil
	case *skip > 0:
		*skip--
		return nil
	}
	*fail--
	return s.faultErr
}

// Write stores data at byte offset off. The write may span pages and need
// not be aligned; partial first/last pages are read-modified internally
// (content only; the time model charges one command).
func (s *SSD) Write(off uint64, data []byte) error {
	if err := s.takeFault(true); err != nil {
		return fmt.Errorf("ssd %q: injected write fault: %w", s.cfg.Name, err)
	}
	if err := s.checkRange("write", off, len(data)); err != nil {
		return err
	}
	s.mu.Lock()
	err := ErrClosed
	if s.store != nil {
		err = s.store.write(off, data)
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("ssd %q: %w", s.cfg.Name, err)
	}
	s.account(&s.writes, &s.writeBytes, len(data), s.AccessTime(true, len(data)))
	return nil
}

// account books one completed command of n bytes and modeled time at.
func (s *SSD) account(ios, bytes *metrics.Counter, n int, at time.Duration) {
	ios.Inc()
	bytes.Add(uint64(n))
	s.busyNanos.Add(uint64(at.Nanoseconds()))
	if s.obsAccess != nil {
		s.obsAccess.Observe(float64(at.Nanoseconds()))
	}
}

// checkRange bounds one command against the device capacity. Offsets come
// from on-disk bytes (PBAs, bucket numbers): off+n, which wraps, is never formed.
func (s *SSD) checkRange(verb string, off uint64, n int) error {
	if c := s.cfg.CapacityBytes; n < 0 || off > c || uint64(n) > c-off {
		return fmt.Errorf("ssd %q: %s of %d bytes at %d beyond capacity %d", s.cfg.Name, verb, n, off, c)
	}
	return nil
}

// Read returns n bytes at byte offset off in a fresh, caller-owned slice.
func (s *SSD) Read(off uint64, n int) ([]byte, error) {
	if err := s.checkRange("read", off, n); err != nil {
		return nil, err // before make: n is as untrusted as off
	}
	out := make([]byte, n)
	if err := s.ReadInto(out, off); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto is the device read: a DMA from byte offset off into a buffer
// the caller owns (a table-cache line, a server's read scratch).
// Never-written regions read as zeros, matching a trimmed flash device.
func (s *SSD) ReadInto(dst []byte, off uint64) error {
	if err := s.takeFault(false); err != nil {
		return fmt.Errorf("ssd %q: injected read fault: %w", s.cfg.Name, err)
	}
	if err := s.checkRange("read", off, len(dst)); err != nil {
		return err
	}
	s.mu.RLock()
	err := ErrClosed
	if s.store != nil {
		err = s.store.read(dst, off)
	}
	s.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("ssd %q: %w", s.cfg.Name, err)
	}
	s.account(&s.reads, &s.readBytes, len(dst), s.AccessTime(false, len(dst)))
	return nil
}

// AccessTime models one command's device time: fixed command latency plus
// transfer time at the sustained bandwidth.
func (s *SSD) AccessTime(write bool, n int) time.Duration {
	var lat time.Duration
	var bw float64
	if write {
		lat, bw = s.cfg.WriteLatency, s.cfg.WriteBW
	} else {
		lat, bw = s.cfg.ReadLatency, s.cfg.ReadBW
	}
	return lat + time.Duration(float64(n)/bw*1e9)*time.Nanosecond
}

// Stats returns a snapshot of device counters.
func (s *SSD) Stats() Stats {
	return Stats{
		ReadIOs:      s.reads.Value(),
		WriteIOs:     s.writes.Value(),
		ReadBytes:    s.readBytes.Value(),
		WriteBytes:   s.writeBytes.Value(),
		BusyDuration: time.Duration(s.busyNanos.Value()),
	}
}

// StoredPages reports how many pages hold data: for an in-memory device
// the pages written, whose bytes sit in off-heap slabs; for a file-backed
// one an upper bound derived from the file size. A closed device holds
// none.
func (s *SSD) StoredPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.store == nil {
		return 0
	}
	return s.store.pages()
}
