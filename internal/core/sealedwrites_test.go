package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fidr/internal/blockcomp"
	"fidr/internal/lanes"
	"fidr/internal/ssd"
)

// waitHelpersGone waits until no pool helper of any server is running:
// each exits once it has found nothing to claim for its idle spin, after
// claiming whatever is still queued.
func waitHelpersGone(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); strings.Contains(string(buf[:runtime.Stack(buf, true)]), "lanes.(*Pool).helper"); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("pool helpers still running")
		}
	}
}

// TestCrashHaltsContainerWrites: a crash that fires while a container
// write is posted and no helper has claimed it yet drops that write, so
// nothing reaches the data SSD after the crash — on devices a recovered
// server may already be writing. The pool's one helper is held busy, so
// the round is still unclaimed when the next batch's CrashPrePack fires;
// once the helper is let go, it would claim the round were it still
// queued. Recovery over the same devices is then consistent.
func TestCrashHaltsContainerWrites(t *testing.T) {
	sh := blockcomp.NewShaper(0.5)
	for _, arch := range []Arch{FIDRFull, Baseline} {
		t.Run(arch.String(), func(t *testing.T) {
			waitHelpersGone(t)
			tssd := ssd.MustNew(ssd.Config{Name: "tssd", CapacityBytes: 1 << 28, PageSize: 4096,
				ReadBW: 3.5e9, WriteBW: 2.7e9})
			dssd := ssd.MustNew(ssd.Config{Name: "dssd", CapacityBytes: 1 << 28, PageSize: 4096,
				ReadBW: 3.5e9, WriteBW: 2.7e9})
			dev := NewMemWALDevice()
			wal, err := NewWAL(dev)
			if err != nil {
				t.Fatal(err)
			}
			cfg := walTestConfig(arch, tssd, dssd, wal)
			cfg.HashLanes, cfg.CompressLanes = 2, 2
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil { // recovery's base
				t.Fatal(err)
			}
			claimed, release := make(chan struct{}), make(chan struct{})
			busy := lanes.NewJob(lanes.Waited, func(int) { close(claimed); <-release })
			s.pool.Post(busy, 1, 2, 1)
			<-claimed

			i := uint64(0)
			write := func() error {
				i++
				return s.Write(i, sh.Make(i, 4096))
			}
			for len(s.sw.posted) == 0 {
				if err := write(); err != nil || i == 4000 {
					t.Fatalf("write %d: %v, nothing posted", i, err)
				}
			}
			s.ArmCrash(CrashPrePack, 1)
			for err = nil; err == nil; err = write() {
				if i == 4000 {
					t.Fatal("the crash never fired")
				}
			}
			if !errors.Is(err, ErrCrashInjected) {
				t.Fatal(err)
			}
			ios := dssd.Stats().WriteIOs
			close(release)
			busy.Join()
			waitHelpersGone(t)
			if got := dssd.Stats().WriteIOs; got != ios {
				t.Fatalf("%d container writes landed after the crash", got-ios)
			}
			walRecoverAndVerify(t, dev, cfg, 0, nil)
		})
	}
}

// TestInFlightReadsFromSSD: a read of a chunk whose container write is in
// flight waits for it and is answered by the data SSD, so every read-out
// and read-path count equals a run whose container writes all finish
// before the write that posted them returns. Both architectures, fixed
// and CDC chunking, at 1, 2 and 4 lanes.
func TestInFlightReadsFromSSD(t *testing.T) {
	const writes, lag = 400, 12
	for _, arch := range []Arch{FIDRFull, Baseline} {
		for _, mode := range testModes {
			for _, lanes := range []int{1, 2, 4} {
				t.Run(archSubtest(arch, mode, lanes), func(t *testing.T) {
					run := func(sync bool) (string, int) {
						w := &cursorWriter{s: cursorServer(t, arch, mode.chunking, lanes), sh: blockcomp.NewShaper(0.5), unique: true}
						s := w.s
						h := sha256.New()
						var addrs []uint64
						inFlight := 0
						for len(addrs) < writes {
							addrs = append(addrs, w.addr)
							w.write(t)
							if sync {
								if err := s.reapSealed(); err != nil {
									t.Fatal(err)
								}
							}
							if len(addrs) <= lag {
								continue
							}
							at := addrs[len(addrs)-1-lag]
							if pba, err := s.lba.ResolveLBA(at); err == nil && s.sw.inFlight(pba.Container) {
								inFlight++
							}
							got, err := s.Read(at)
							if err != nil {
								t.Fatal(err)
							}
							h.Write(got)
						}
						st := s.Stats()
						fmt.Fprintf(h, "%d %d %d %d\n", st.NICReadHits, st.PendingReads, st.ReadCacheHits, s.DataSSDStats().ReadIOs)
						return hex.EncodeToString(h.Sum(nil)), inFlight
					}
					got, inFlight := run(false)
					want, _ := run(true)
					if inFlight == 0 {
						t.Fatal("no read met a container write in flight; the test exercised nothing")
					}
					if got != want {
						t.Fatalf("%d reads met a write in flight: read-outs %s, with every write finished %s", inFlight, got, want)
					}
				})
			}
		}
	}
}

// archSubtest names a subtest of arch, mode and lanes: "fixed/lanes1" for
// FIDR-Full, "baseline/fixed/lanes1" for the baseline.
func archSubtest(arch Arch, mode testMode, lanes int) string {
	name := fmt.Sprintf("%s/lanes%d", mode.name, lanes)
	if arch == Baseline {
		name = "baseline/" + name
	}
	return name
}

// TestVerbsLeaveNoWriteInFlight: Flush, Compact, Checkpoint and Verify
// each return with every sealed container on the data SSD, none posted
// and none queued. Both architectures, fixed and CDC chunking, at 1, 2
// and 4 lanes.
func TestVerbsLeaveNoWriteInFlight(t *testing.T) {
	verbs := []struct {
		name string
		run  func(s *Server) error
	}{
		{"flush", (*Server).Flush},
		{"compact", func(s *Server) error { _, err := s.Compact(0); return err }},
		{"checkpoint", (*Server).Checkpoint},
		{"verify", func(s *Server) error { _, err := s.Verify(); return err }},
	}
	for _, arch := range []Arch{FIDRFull, Baseline} {
		for _, mode := range testModes {
			for _, lanes := range []int{1, 2, 4} {
				for _, verb := range verbs {
					t.Run(archSubtest(arch, mode, lanes)+"/"+verb.name, func(t *testing.T) {
						w := &cursorWriter{s: cursorServer(t, arch, mode.chunking, lanes), sh: blockcomp.NewShaper(0.5), unique: true}
						s := w.s
						for len(s.sw.posted) == 0 {
							if w.n == 4000 {
								t.Fatal("no container write was posted; test setup broken")
							}
							w.write(t)
						}
						if err := verb.run(s); err != nil {
							t.Fatal(err)
						}
						if len(s.sw.posted) != 0 || len(s.comp.Sealed()) != 0 {
							t.Fatalf("%d containers posted, %d sealed after %s", len(s.sw.posted), len(s.comp.Sealed()), verb.name)
						}
						if ios, sealed := s.DataSSDStats().WriteIOs, s.EngineStats().ContainersSealed; ios != sealed {
							t.Fatalf("%d container writes for %d sealed containers", ios, sealed)
						}
					})
				}
			}
		}
	}
}
