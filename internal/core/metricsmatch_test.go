package core

import (
	"strings"
	"sync"
	"testing"

	"fidr/internal/blockcomp"
	"fidr/internal/hostmodel"
	"fidr/internal/metrics"
	"fidr/internal/pcie"
	"fidr/internal/ssd"
)

// mixedOps drives writes (duplicates and overwrites included), reads from
// every tier, a GC pass and a flush: every counter family moves.
func mixedOps(t testing.TB, s *Server, base, n uint64) {
	t.Helper()
	sh := blockcomp.NewShaper(0.5)
	for i := base; i < base+n; i++ {
		if err := s.Write(i%150, sh.Make(i%61, 4096)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := s.Read(i % 150); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for lba := uint64(0); lba < 40; lba++ {
		if _, err := s.Read(lba); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(0); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchStats checks that every Stats()-style read-out with a
// /metrics series equals that series — whenever observability attached:
// before any traffic, after 200 ops, or onto a server RecoverServer
// rebuilt by replaying a WAL (whose replay and scrub ran before anything
// could attach).
func TestMetricsMatchStats(t *testing.T) {
	const (
		before    = "before-traffic"
		late      = "after-200-ops"
		recovered = "recovered"
	)
	for _, arch := range []Arch{Baseline, FIDRNicP2P, FIDRFull} {
		for _, when := range []string{before, late, recovered} {
			t.Run(arch.String()+"/"+when, func(t *testing.T) {
				tssd, dssd := walTestDevices()
				dev := NewMemWALDevice()
				w, err := NewWAL(dev)
				if err != nil {
					t.Fatal(err)
				}
				s, err := New(walTestConfig(arch, tssd, dssd, w))
				if err != nil {
					t.Fatal(err)
				}
				// The table SSD outlives a crash: a recovered server's
				// table-SSD IO is compared from the end of its recovery
				// (which also reads the checkpoint header, uncounted).
				var tableIO0 uint64
				var tssd0 ssd.Stats
				switch when {
				case late:
					mixedOps(t, s, 0, 200)
				case recovered:
					mixedOps(t, s, 0, 200)
					dev.Crash()
					w2, err := NewWAL(dev)
					if err != nil {
						t.Fatal(err)
					}
					if s, err = RecoverServer(walTestConfig(arch, tssd, dssd, w2)); err != nil {
						t.Fatal(err)
					}
					if s.LastRecovery().ReplayedRecords == 0 {
						t.Fatal("recovery replayed nothing; the row would not test pre-attach activity")
					}
					tableIO0, tssd0 = s.Ledger().Snapshot().Events[hostmodel.EvTableSSDIO], s.TableSSDStats()
				}
				reg := s.EnableObservability(nil)
				mixedOps(t, s, 200, 300)
				assertMetricsMatch(t, s, reg)
				assertEventsMatch(t, s, tableIO0, tssd0)
			})
		}
	}
}

// assertEventsMatch checks the ledger's event counts against the
// counters that already count the same things: client requests, predictor
// calls, and table-SSD commands (since tableIO0 and tssd0) under software
// caching, which FIDR-Full's Cache HW-Engine takes off the host.
func assertEventsMatch(t *testing.T, s *Server, tableIO0 uint64, tssd0 ssd.Stats) {
	t.Helper()
	ev := s.Ledger().Snapshot().Events
	st := s.Stats()
	if ev[hostmodel.EvProtocolWrite] != st.ClientWrites || ev[hostmodel.EvProtocolRead] != st.ClientReads {
		t.Errorf("protocol events %d writes / %d reads, Stats %d / %d",
			ev[hostmodel.EvProtocolWrite], ev[hostmodel.EvProtocolRead], st.ClientWrites, st.ClientReads)
	}
	predictions := s.PredictorStats().Predictions
	if (s.Arch() == Baseline) != (predictions > 0) || ev[hostmodel.EvPredictorChunk] != predictions {
		t.Errorf("%d predictor events, %d predictions", ev[hostmodel.EvPredictorChunk], predictions)
	}
	tssd := s.TableSSDStats()
	commands := tssd.ReadIOs + tssd.WriteIOs - tssd0.ReadIOs - tssd0.WriteIOs
	var want uint64
	if s.Arch() != FIDRFull {
		want = commands
	}
	if commands == 0 || ev[hostmodel.EvTableSSDIO]-tableIO0 != want {
		t.Errorf("%d table-SSD IO events for %d device commands, want %d",
			ev[hostmodel.EvTableSSDIO]-tableIO0, commands, want)
	}
}

// assertMetricsMatch compares every read-out field that has a series
// with the series. Fields without one (nic HashBytes, WAL Syncs) are the
// only ones skipped.
func assertMetricsMatch(t *testing.T, s *Server, reg *metrics.Registry) {
	t.Helper()
	series := make(map[string]float64)
	for _, m := range reg.Snapshot() {
		if m.Kind != "hist" {
			series[m.Name] = m.Value
		}
	}
	eq := func(name string, want uint64) {
		t.Helper()
		got, ok := series[name]
		if !ok {
			t.Errorf("%s: no such series", name)
		} else if got != float64(want) {
			t.Errorf("%s = %v, read-out says %d", name, got, want)
		}
	}

	st := s.Stats()
	eq("core.writes", st.ClientWrites)
	eq("core.reads", st.ClientReads)
	eq("core.client_bytes", st.ClientBytes)
	eq("core.dup_chunks", st.DuplicateChunks)
	eq("core.unique_chunks", st.UniqueChunks)
	eq("core.stored_bytes", st.StoredBytes)
	eq("capacity.stored_bytes", st.StoredBytes)
	eq("core.nic_read_hits", st.NICReadHits)
	eq("core.read_cache_hits", st.ReadCacheHits)
	eq("core.pending_reads", st.PendingReads)
	eq("core.batches", st.BatchesProcessed)
	eq("core.mispredictions", st.Mispredictions)
	eq("capacity.logical_bytes", st.LogicalWriteBytes)
	eq("capacity.dedup_saved_bytes", st.DedupSavedBytes)
	eq("capacity.compression_saved_bytes", st.CompressionSavedBytes)
	eq("capacity.deleted_fingerprints", st.DeletedFingerprints)
	eq("capacity.reclaimed_dead_bytes", st.ReclaimedDeadBytes)

	ns := s.NICStats()
	eq("nic.writes_buffered", ns.WritesBuffered)
	eq("nic.bytes_buffered", ns.BytesBuffered)
	eq("nic.hash_ops", ns.HashOps)
	eq("nic.read_lookups", ns.ReadLookups)
	eq("nic.read_hits", ns.ReadHits)
	eq("nic.batches_made", ns.BatchesMade)
	eq("nic.unique_sent", ns.UniqueSent)
	eq("nic.duplicate_drops", ns.DuplicateDrops)

	es := s.EngineStats()
	eq("engine.chunks_in", es.ChunksIn)
	eq("engine.bytes_in", es.BytesIn)
	eq("engine.bytes_compressed", es.BytesCompressed)
	eq("engine.raw_stored", es.RawStored)
	eq("engine.containers_sealed", es.ContainersSealed)

	cs := s.CacheStats()
	eq("tablecache.lookups", cs.Lookups)
	eq("tablecache.hits", cs.Hits)
	eq("tablecache.misses", cs.Misses)
	eq("tablecache.evictions", cs.Evictions)
	eq("tablecache.flushes", cs.Flushes)

	ssdEq := func(name string, x ssd.Stats) {
		t.Helper()
		p := "ssd." + name + "."
		eq(p+"read_ios", x.ReadIOs)
		eq(p+"write_ios", x.WriteIOs)
		eq(p+"read_bytes", x.ReadBytes)
		eq(p+"write_bytes", x.WriteBytes)
		eq(p+"busy_ns", uint64(x.BusyDuration))
	}
	ssdEq(s.dataSSD.Config().Name, s.DataSSDStats())
	ssdEq(s.tableSSD.Config().Name, s.TableSSDStats())

	ws := s.WALStats()
	eq("wal.appended_records", ws.AppendedRecords)
	eq("wal.replayed_records", ws.ReplayedRecords)
	eq("wal.pending_records", uint64(ws.PendingRecords))
	eq("wal.durable_bytes", uint64(ws.DurableBytes))

	snap := s.Ledger().Snapshot()
	for _, p := range hostmodel.Paths() {
		eq("hostmodel.dram."+p.Slug()+".bytes", snap.MemBytes[p])
	}
	for _, c := range hostmodel.Components() {
		eq("hostmodel.cpu."+c.Slug()+".ns", snap.CPUNanos[c])
	}
	eq("hostmodel.dram_bytes", snap.TotalMemBytes())
	eq("hostmodel.cpu_ns", snap.TotalCPUNanos())
	eq("hostmodel.dram_payload_bytes", snap.PayloadBytes)
	eq("hostmodel.client_bytes", snap.ClientBytes)

	// The per-link report has no series of its own: rebuild it from the
	// per-route series and the routes' hop lists.
	links, p2p, root := s.Topology().Report()
	eq("pcie.p2p_bytes", p2p)
	eq("pcie.root_bytes", root)
	perLink := make(map[string]uint64)
	for name, v := range series {
		pair, ok := strings.CutPrefix(name, "pcie.route.")
		if !ok || v == 0 {
			continue
		}
		src, dst, _ := strings.Cut(strings.TrimSuffix(pair, ".bytes"), "_to_")
		hops, err := s.Topology().Route(pcie.DeviceID(src), pcie.DeviceID(dst))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 1; i < len(hops); i++ {
			a, b := hops[i-1], hops[i]
			if a > b {
				a, b = b, a
			}
			perLink[a+"<->"+b] += uint64(v)
		}
	}
	if len(links) != len(perLink) {
		t.Errorf("Report() has %d links, route series imply %d", len(links), len(perLink))
	}
	for _, lb := range links {
		if perLink[lb.Link.String()] != lb.Bytes {
			t.Errorf("link %s: Report() %d, route series imply %d", lb.Link, lb.Bytes, perLink[lb.Link.String()])
		}
	}
}

// TestStatsReadableWhileServing drives a server on one goroutine while
// another scrapes the registry and reads the Stats() family — the
// read-outs are built from atomics the writer owns, so under -race this
// must stay clean and every read must be monotonic.
func TestStatsReadableWhileServing(t *testing.T) {
	for _, arch := range []Arch{Baseline, FIDRFull} {
		t.Run(arch.String(), func(t *testing.T) {
			s := newServer(t, arch)
			reg := s.EnableObservability(nil)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lastWrites, lastLookups, lastBuffered uint64
				for {
					select {
					case <-stop:
						return
					default:
					}
					reg.Snapshot()
					st, ns, cs := s.Stats(), s.NICStats(), s.CacheStats()
					s.EngineStats()
					s.DataSSDStats()
					s.Ledger().Snapshot()
					s.Topology().Report()
					if st.ClientWrites < lastWrites || cs.Lookups < lastLookups || ns.WritesBuffered < lastBuffered {
						t.Errorf("read-out went backwards: writes %d<%d lookups %d<%d buffered %d<%d",
							st.ClientWrites, lastWrites, cs.Lookups, lastLookups, ns.WritesBuffered, lastBuffered)
						return
					}
					lastWrites, lastLookups, lastBuffered = st.ClientWrites, cs.Lookups, ns.WritesBuffered
				}
			}()
			mixedOps(t, s, 0, 600)
			close(stop)
			wg.Wait()
		})
	}
}
