// Command fidrd runs a FIDR (or baseline) storage server speaking the
// simplified storage protocol of §6.2 over TCP.
//
// Usage:
//
//	fidrd [-addr :9400] [-arch fidr|fidr-nic|baseline] [-batch 64]
//	      [-groups 1] [-metrics-addr :9401] [-metrics-interval 10s]
//	      [-events 1024] [-gc-threshold 0.25] [-pprof]
//	      [-health-dir DIR] [-health-snapshots 8] [-health-profile 0]
//	      [-watchdog-interval 250ms] [-watchdog-deadline 2s]
//	      [-chunker fixed|cdc] [-cdc-min N] [-cdc-avg N] [-cdc-max N]
//
// -chunker=cdc switches writes to content-defined, variable-size
// chunking: each Write is a stream segment at an absolute byte offset,
// cut into extents by the skip-ahead gear chunker; reads address the
// extent start offsets. Every stored chunk's metadata records its own
// uncompressed length, so CDC volumes take -data-file, -table-file,
// -wal-file and -recover like fixed ones (restart with the same
// -chunker flags). The one thing CDC does not take is -groups > 1: the
// router shards by address ahead of the chunker, so a segment's interior
// extents would land on a group that never saw them.
//
// With -groups N > 1 the daemon serves a §5.6 scale-out cluster: N
// device groups, each a full server, with client LBAs sharded across
// them (in-memory volumes only; incompatible with -data-file/-recover).
// -wal-file works in cluster mode too: each group journals to its own
// group-local log at <wal-file>.g<N> (fresh logs every start; cluster
// recovery is not implemented yet).
//
// All requests flow through an async front-end (the software shape of
// the paper's device manager): each group's server has one owner at a
// time — its queue's worker, or a connection handler that found the
// group idle and serves its own request — so the protocol listener
// serves connections concurrently. -queue-depth bounds the per-group
// queue.
//
// The daemon traces requests end to end. Wire requests carrying a
// trace context (fidrcli put -trace, the traced client API) are always
// traced; -trace-sample N additionally head-samples every Nth
// untraced request. Every finished request is one span tree in one
// collector with three retention classes: the last -traces requests
// (/traces), the last -slow-traces requests above the -slow-quantile
// of total latency and never below -slow-min (/traces/slow, kept past
// their eviction from /traces), and the last -trace-ring sampled
// traces with the proto and queue spans of their upstream layers
// (/traces/spans?id=<trace-id>). Sampled requests tag latency-
// histogram buckets with their trace ID (OpenMetrics exemplars on
// /metrics?format=prom). -slo-spec declares latency objectives
// (name:hist:threshold:target,...) evaluated into error budgets and
// multiwindow burn rates at /slo; the default objectives cover the
// write and read request classes.
//
// With -data-file/-table-file the volumes are durable; adding
// -wal-file writes every table/refcount/LBA mutation to a group-local
// write-ahead log, so a crash between checkpoints loses nothing that
// was committed: restart with -recover to replay the log over the last
// checkpoint (fidrfsck -wal-file checks such a volume offline).
//
// With -metrics-addr the server exposes its live metrics over HTTP:
// GET /metrics dumps counters, gauges and per-stage latency histograms
// in plain text, GET /metrics?format=prom emits Prometheus text
// exposition, GET /metrics/series serves sampled time series (windowed
// min/mean/max, counter rates, device duty cycles) as JSON, GET /traces
// dumps the most recent request traces, GET /traces/slow dumps the
// slow-trace retention, and GET /healthz and /readyz serve
// liveness/readiness probes. The capacity plane adds GET /capacity (the
// reduction-attribution ledger, garbage debt and GC advice as JSON,
// with ?threshold= overriding -gc-threshold), GET /capacity/containers
// (the container heatmap bucketed by dead fraction and age band), and
// GET /events (the structured event journal — GC runs, checkpoints,
// WAL truncation, recovery, SLO breach transitions — as JSONL, sized by
// -events and tailable with ?since=). In cluster mode the registry
// carries merged cluster-wide series, "group<N>."-prefixed per-group
// series, and derived shard-balance gauges; capacity views merge across
// groups and all groups share one event journal. -pprof additionally
// mounts
// net/http/pprof under /debug/pprof/ on the same address. With
// -metrics-interval the daemon also logs a one-line summary
// periodically. On SIGINT or SIGTERM the server flushes open containers
// and reports reduction and resource statistics.
//
// The runtime health plane watches the daemon itself. Go runtime
// metrics (goroutines, heap, GC pause and scheduler-latency histograms)
// join the metrics view under "runtime.*", next to a labeled build_info
// gauge. A watchdog probes subsystem liveness every -watchdog-interval:
// per-worker async heartbeats and stuck queues, in-flight WAL fsyncs,
// and the protocol accept loop; a probe past -watchdog-deadline emits a
// watchdog_stall event into /events (with the stalled request's trace
// ID when sampled) and, when -health-dir is set, trips the snapshot
// recorder — a bounded ring of -health-snapshots on-disk
// diagnostic snapshots (goroutine dump, metrics, event tail, slow
// traces, and a CPU+mutex profile of -health-profile length when > 0),
// captured on watchdog trips and SLO breach edges and served as a
// tarball at /debug/bundle. `fidrcli doctor` fetches all of it and
// renders a pass/warn/fail report. -debug-hooks additionally mounts
// POST /debug/stall?d=2s (inject an async-worker stall; test harnesses
// only, never production).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"fidr"
	"fidr/internal/chunk"
	"fidr/internal/core"
	"fidr/internal/hostmodel"
	"fidr/internal/metrics"
	"fidr/internal/metrics/health"
	"fidr/internal/proto"
	"fidr/internal/ssd"
	"fidr/internal/trace/span"
)

// Build identity, stamped by the Makefile:
//
//	go build -ldflags "-X main.buildVersion=... -X main.buildCommit=..."
//
// Plain `go build` leaves the dev/none defaults, so the binary always
// has a truthful build_info gauge.
var (
	buildVersion = "dev"
	buildCommit  = "none"
)

func main() {
	addr := flag.String("addr", ":9400", "listen address")
	arch := flag.String("arch", "fidr", "architecture: fidr, fidr-nic, baseline")
	batch := flag.Int("batch", 64, "accelerator batch size in chunks")
	containerSize := flag.Int("container-size", 0, "compressed-chunk container size in bytes; 0 = architecture default")
	hashLanes := flag.Int("hash-lanes", 0, "NIC hash-core lanes; 0 = GOMAXPROCS-derived")
	compressLanes := flag.Int("compress-lanes", 0, "compression-pipeline lanes; 0 = GOMAXPROCS-derived")
	groups := flag.Int("groups", 1, "device groups; >1 serves a sharded cluster (in-memory only)")
	dataFile := flag.String("data-file", "", "file-backed data volume (durable); empty = in-memory")
	tableFile := flag.String("table-file", "", "file-backed table volume (durable); empty = in-memory")
	walFile := flag.String("wal-file", "", "write-ahead log file; mutations since the last checkpoint survive a crash (requires -data-file)")
	recover := flag.Bool("recover", false, "recover state from a checkpoint on the table volume (and replay -wal-file when set)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP address serving /metrics and /traces; empty = disabled")
	metricsInterval := flag.Duration("metrics-interval", 0, "log a metrics summary at this interval; 0 = disabled")
	traces := flag.Int("traces", 256, "recent request traces kept for /traces")
	seriesInterval := flag.Duration("series-interval", time.Second, "sampling interval for /metrics/series")
	seriesSamples := flag.Int("series-samples", 300, "samples retained per series for /metrics/series")
	slowQuantile := flag.Float64("slow-quantile", 0.99, "slow-trace retention keeps requests above this total-latency quantile")
	slowMin := flag.Duration("slow-min", time.Millisecond, "slow-trace retention never keeps requests faster than this")
	slowTraces := flag.Int("slow-traces", 64, "slow requests kept for /traces/slow")
	queueDepth := flag.Int("queue-depth", 64, "async front-end per-group queue depth")
	traceSample := flag.Int("trace-sample", 0, "head-sample every Nth untraced request into /traces/spans; 0 = wire-traced requests only")
	sampledTraces := flag.Int("trace-ring", 512, "distinct sampled traces kept for /traces/spans")
	sloSpec := flag.String("slo-spec", "", "latency objectives as name:hist:threshold:target,...; empty = built-in write/read objectives")
	eventsCap := flag.Int("events", 1024, "structured events kept for /events")
	gcThreshold := flag.Float64("gc-threshold", 0.25, "default dead-fraction threshold for /capacity GC advice (override per scrape with ?threshold=)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on -metrics-addr")
	healthDir := flag.String("health-dir", "", "snapshot-recorder directory; empty = recorder disabled")
	healthSnapshots := flag.Int("health-snapshots", 8, "diagnostic snapshots retained in -health-dir")
	healthProfile := flag.Duration("health-profile", 0, "CPU+mutex profile length captured into each snapshot; 0 = no profiles")
	watchdogInterval := flag.Duration("watchdog-interval", 250*time.Millisecond, "liveness probe cadence")
	watchdogDeadline := flag.Duration("watchdog-deadline", 2*time.Second, "liveness deadline before a probe reports a stall")
	debugHooks := flag.Bool("debug-hooks", false, "mount fault-injection hooks (POST /debug/stall) on -metrics-addr; test harnesses only")
	chunker := flag.String("chunker", "fixed", "write chunking mode: fixed or cdc (content-defined, variable-size extents; single group only)")
	cdcMin := flag.Int("cdc-min", 0, "CDC minimum chunk bytes; 0 = default")
	cdcAvg := flag.Int("cdc-avg", 0, "CDC average (target) chunk bytes; 0 = default")
	cdcMax := flag.Int("cdc-max", 0, "CDC maximum chunk bytes; 0 = default")
	flag.Parse()

	var a fidr.Arch
	switch *arch {
	case "fidr":
		a = fidr.FIDRFull
	case "fidr-nic":
		a = fidr.FIDRNicP2P
	case "baseline":
		a = fidr.Baseline
	default:
		log.Fatalf("fidrd: unknown architecture %q", *arch)
	}
	cfg := fidr.DefaultConfig(a)
	cfg.BatchChunks = *batch
	if *containerSize > 0 {
		cfg.ContainerSize = *containerSize
	}
	cfg.HashLanes = *hashLanes
	cfg.CompressLanes = *compressLanes
	if *groups < 1 {
		log.Fatalf("fidrd: -groups %d", *groups)
	}
	mode, err := chunk.ParseMode(*chunker)
	if err != nil {
		log.Fatalf("fidrd: -chunker: %v", err)
	}
	if mode == chunk.ModeCDC {
		// Addressing, not persistence: the cluster router shards by
		// address before any chunker runs.
		if *groups > 1 {
			log.Fatal("fidrd: -chunker=cdc requires -groups 1")
		}
		cfg.Chunking = chunk.Config{Mode: mode, Min: *cdcMin, Avg: *cdcAvg, Max: *cdcMax}
	}

	// The store behind the listener, plus its observability surface.
	// col is the one trace store: every layer and every group hands it
	// finished spans, and it backs /traces, /traces/slow and
	// /traces/spans. front holds the front-end's own series (async
	// queue, proto listener, SLO gauges) alongside the back-end view.
	col := span.NewCollector(*traces, *slowTraces, *sampledTraces)
	col.SetSlowGate(*slowQuantile, *slowMin)
	front := metrics.NewRegistry()
	// One journal across all groups: GC runs, checkpoints, WAL
	// truncation, recovery and SLO breaches interleave in one sequence.
	journal := fidr.NewEventJournal(*eventsCap)
	var (
		backend  fidr.Store
		view     metrics.Gatherer
		shutdown func()
		// wals collects every group-local log so the health watchdog can
		// probe in-flight fsyncs (one entry per group, or one total in
		// single-server mode).
		wals []*core.WAL
	)
	if *groups > 1 {
		if *dataFile != "" || *tableFile != "" || *recover {
			log.Fatal("fidrd: -groups > 1 is incompatible with -data-file/-table-file/-recover")
		}
		var cl *fidr.Cluster
		var err error
		if *walFile != "" {
			// Group-local logs, like a group's SSDs: one file per group.
			cl, err = fidr.NewClusterWAL(cfg, *groups, func(g int) (*core.WAL, error) {
				w, werr := core.OpenWALFile(fmt.Sprintf("%s.g%d", *walFile, g))
				if werr != nil {
					return nil, werr
				}
				// Cluster mode has no recovery path yet; never replay a
				// previous deployment's log.
				if werr := w.Reset(); werr != nil {
					return nil, werr
				}
				wals = append(wals, w)
				return w, nil
			})
		} else {
			cl, err = fidr.NewCluster(cfg, *groups)
		}
		if err != nil {
			log.Fatalf("fidrd: %v", err)
		}
		view = cl.EnableObservability()
		cl.SetSpanCollector(col)
		cl.SetTraceSampling(*traceSample)
		cl.SetEventJournal(journal)
		backend = cl
		shutdown = func() {
			report(cl.Stats(), cl.Snapshot(), -1)
		}
	} else {
		if err := attachVolumes(&cfg, *dataFile, *tableFile); err != nil {
			log.Fatalf("fidrd: %v", err)
		}
		var wal *core.WAL
		if *walFile != "" {
			if cfg.DataSSD == nil {
				log.Fatal("fidrd: -wal-file requires -data-file and -table-file")
			}
			w, err := core.OpenWALFile(*walFile)
			if err != nil {
				log.Fatalf("fidrd: wal: %v", err)
			}
			if !*recover {
				// A fresh start must not replay a previous deployment's
				// log over an empty server.
				if err := w.Reset(); err != nil {
					log.Fatalf("fidrd: wal reset: %v", err)
				}
			}
			cfg.WAL = w
			wal = w
			wals = append(wals, w)
		}
		var srv *fidr.Server
		var err error
		if *recover {
			if cfg.DataSSD == nil || cfg.TableSSD == nil {
				log.Fatal("fidrd: -recover requires -data-file and -table-file")
			}
			srv, err = core.RecoverServer(cfg)
		} else {
			srv, err = fidr.NewServer(cfg)
		}
		if err != nil {
			log.Fatalf("fidrd: %v", err)
		}
		if *recover && wal != nil {
			rr := srv.LastRecovery()
			log.Printf("fidrd: replayed %d WAL records (checkpoint seq %d, genesis=%v)",
				rr.ReplayedRecords, rr.CheckpointSeq, rr.FromGenesis)
		}
		durable := cfg.DataSSD != nil && cfg.TableSSD != nil
		// Attach the live registry before serving: the HTTP endpoint and
		// the interval logger read only registry atomics, so they are
		// safe alongside the protocol listener.
		view = srv.EnableObservability(nil)
		// Single-server views derive the capacity ratios here; the
		// cluster view already appends them over its merged counters.
		view = metrics.Multi(view, metrics.CapacityRatios(view))
		srv.SetSpanCollector(col, 0)
		srv.SetTraceSampling(*traceSample)
		srv.SetEventJournal(journal, 0)
		backend = srv
		shutdown = func() {
			if durable {
				if err := srv.Checkpoint(); err != nil {
					log.Printf("fidrd: checkpoint: %v", err)
				} else {
					log.Printf("fidrd: checkpoint written; restart with -recover to resume")
				}
				if wal != nil {
					if err := wal.Close(); err != nil {
						log.Printf("fidrd: wal close: %v", err)
					}
				}
			}
			report(srv.Stats(), srv.Ledger().Snapshot(), srv.CacheStats().HitRate())
		}
	}

	// The async front-end owns the store(s): one worker per group, with
	// bounded queues for backpressure. Its Close drains the queues and
	// flushes every group, so shutdown needs no explicit Flush.
	async, err := fidr.NewAsync(backend, *queueDepth)
	if err != nil {
		log.Fatalf("fidrd: %v", err)
	}
	async.EnableObservability(front)
	async.SetSpanCollector(col)
	store, err := fidr.NewAsyncStore(async, cfg.ChunkSize)
	if err != nil {
		log.Fatalf("fidrd: %v", err)
	}
	// Health plane, part 1: the process-wide series. The runtime bridge,
	// build_info and queue-depth gauges are mounted exactly once at the
	// top of the composed view — never inside the per-group registries —
	// so cluster merge semantics cannot multiply process-wide gauges.
	view = metrics.Multi(view, front, metrics.JournalStats(journal),
		health.Runtime(), health.BuildInfo(buildVersion, buildCommit),
		async.DepthGatherer())

	// Health plane, part 2: subsystem liveness. One heartbeat probe and
	// one stuck-queue probe per async worker, one fsync-deadline probe
	// per WAL; the accept-loop probe joins after the listener is up.
	watchdog := health.NewWatchdog()
	watchdog.Instrument(front)
	watchdog.SetEventJournal(journal)
	for i := 0; i < async.Workers(); i++ {
		watchdog.Add(health.HeartbeatProbe(
			fmt.Sprintf("async.worker.g%d", i), async.WorkerHeartbeat(i), *watchdogDeadline))
		watchdog.Add(health.ProgressProbe(
			fmt.Sprintf("async.queue.g%d", i), *watchdogDeadline,
			func() int { return async.QueueDepth(i) }, async.Completed))
	}
	for i, w := range wals {
		deadline := *watchdogDeadline
		watchdog.Add(health.FuncProbe(
			fmt.Sprintf("wal.fsync.g%d", i), deadline, func() (bool, string) {
				d, inFlight := w.FsyncInFlight(time.Now())
				if !inFlight || d <= deadline {
					return false, ""
				}
				return true, "fsync in flight for " + d.Round(time.Millisecond).String()
			}))
	}

	// Health plane, part 3: the on-disk snapshot recorder, armed when
	// -health-dir names a snapshot directory. Captures run off the
	// watchdog/SLO goroutines so probe cadence never blocks on disk.
	var recorder *health.Recorder
	if *healthDir != "" {
		var rerr error
		recorder, rerr = health.NewRecorder(health.RecorderOptions{
			Dir:             *healthDir,
			MaxSnapshots:    *healthSnapshots,
			ProfileDuration: *healthProfile,
			Gatherer:        view,
			Journal:         journal,
			Slow:            col.RenderSlow,
			Build: map[string]string{
				"version": buildVersion, "commit": buildCommit,
			},
		})
		if rerr != nil {
			log.Fatalf("fidrd: %v", rerr)
		}
		recorder.Instrument(front)
		watchdog.OnStall(func(probe, detail, trace string) {
			go func() {
				if _, err := recorder.Trigger(probe, detail, trace); err != nil {
					log.Printf("fidrd: snapshot: %v", err)
				}
			}()
		})
	}

	// SLO plane: latency objectives over the request-class histograms,
	// refreshed on the series cadence.
	objs := metrics.DefaultObjectives()
	if *sloSpec != "" {
		var perr error
		objs, perr = metrics.ParseObjectives(*sloSpec)
		if perr != nil {
			log.Fatalf("fidrd: -slo-spec: %v", perr)
		}
	}
	slo := metrics.NewSLO(view, objs, *seriesSamples)
	slo.Instrument(front)
	slo.SetEventJournal(journal)
	if recorder != nil {
		// An SLO breach is the other snapshot-recorder trigger: capture the
		// evidence while the burn is still visible in the histograms.
		slo.OnBreach(func(objective string) {
			go func() {
				if _, err := recorder.Trigger("slo."+objective, "error budget breached", ""); err != nil {
					log.Printf("fidrd: snapshot: %v", err)
				}
			}()
		})
	}
	stopSLO := make(chan struct{})
	defer close(stopSLO)
	go slo.Run(*seriesInterval, stopSLO)

	// Readiness flips once the protocol listener is accepting; the
	// metrics endpoint may come up first and must answer 503 until then.
	var ready atomic.Bool

	l, err := proto.Serve(store, *addr,
		proto.WithSpanCollector(col),
		proto.WithMetrics(front),
		// The async front serializes per group; connections need not
		// serialize against each other.
		proto.WithConcurrentStore())
	if err != nil {
		log.Fatalf("fidrd: %v", err)
	}
	ready.Store(true)
	watchdog.Add(health.FuncProbe("proto.accept", *watchdogDeadline, func() (bool, string) {
		if l.Accepting() {
			return false, ""
		}
		return true, "accept loop not running"
	}))
	stopWatchdog := make(chan struct{})
	defer close(stopWatchdog)
	go watchdog.Run(*watchdogInterval, stopWatchdog)
	if *groups > 1 {
		log.Printf("fidrd: %s cluster (%d groups) listening on %s", a, *groups, l.Addr())
	} else {
		log.Printf("fidrd: %s server listening on %s", a, l.Addr())
	}

	if *metricsAddr != "" {
		sampler := metrics.NewSampler(view, *seriesSamples)
		stopSampler := make(chan struct{})
		defer close(stopSampler)
		go sampler.Run(*seriesInterval, stopSampler)
		// Capacity views route through the async workers (the ledger is
		// single-writer per group), so a scrape waits for queued requests
		// ahead of it — bounded by the queue depth.
		capacityHandler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			th := *gcThreshold
			if q := r.URL.Query(); q.Has("threshold") {
				// strconv, not Sscanf: "0.5x" must be a 400, not a
				// silently truncated 0.5.
				v, err := strconv.ParseFloat(q.Get("threshold"), 64)
				if err != nil || v < 0 || v > 1 {
					metrics.HTTPBadParam(w, "threshold", q.Get("threshold"), "fraction in [0,1]")
					return
				}
				th = v
			}
			rep, err := store.CapacityReport(th)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(rep)
		})
		heatmapHandler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hm, err := store.ContainerHeatmap()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(hm)
		})
		// /debug/bundle always answers: the recorder when armed, a 503
		// that says how to arm it otherwise (so fidrcli doctor can tell
		// "disabled" apart from "unreachable").
		bundleHandler := http.Handler(recorder)
		if recorder == nil {
			bundleHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "snapshot recorder disabled; restart fidrd with -health-dir",
					http.StatusServiceUnavailable)
			})
		}
		mux := http.NewServeMux()
		mux.Handle("/", metrics.Handler(view, metrics.HandlerOptions{
			Traces:             col.RenderRecent,
			Slow:               col.RenderSlow,
			Sampler:            sampler,
			Spans:              col,
			SLO:                slo,
			Capacity:           capacityHandler,
			CapacityContainers: heatmapHandler,
			Events:             journal,
			DebugBundle:        bundleHandler,
			Ready:              ready.Load,
		}))
		if *pprofFlag {
			// net/http/pprof registers on the default mux at import.
			mux.Handle("/debug/pprof/", http.DefaultServeMux)
		}
		if *debugHooks {
			// Fault injection for the watchdog's end-to-end test: wedge
			// async worker 0 for ?d= (default 3s). Gated behind an explicit
			// flag so production deployments can never reach it.
			mux.HandleFunc("/debug/stall", func(w http.ResponseWriter, r *http.Request) {
				d := 3 * time.Second
				if q := r.URL.Query(); q.Has("d") {
					v, err := time.ParseDuration(q.Get("d"))
					if err != nil || v <= 0 {
						metrics.HTTPBadParam(w, "d", q.Get("d"), "positive Go duration (e.g. 3s)")
						return
					}
					d = v
				}
				if err := async.InjectStall(d); err != nil {
					http.Error(w, err.Error(), http.StatusConflict)
					return
				}
				log.Printf("fidrd: debug hook: injected %v stall on async worker 0", d)
				fmt.Fprintf(w, "stalled worker 0 for %v\n", d)
			})
			log.Print("fidrd: -debug-hooks active: /debug/stall is mounted (never use in production)")
		}
		go func() {
			log.Printf("fidrd: metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("fidrd: metrics server: %v", err)
			}
		}()
	} else if *pprofFlag {
		log.Print("fidrd: -pprof requires -metrics-addr; ignoring")
	}
	if *metricsInterval > 0 {
		go logMetrics(view, *metricsInterval)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("fidrd: shutting down")
	// Requests already read are answered; connections with nothing in
	// flight are dropped, so attached clients cannot hold shutdown up.
	if err := l.Close(); err != nil {
		log.Printf("fidrd: close: %v", err)
	}
	// Drain the queues and flush every group before the final report
	// (and, in durable mode, the checkpoint).
	if err := async.Close(); err != nil {
		log.Printf("fidrd: flush: %v", err)
	}
	shutdown()
}

// report prints the end-of-run summary. cacheHit < 0 means unavailable
// (cluster mode aggregates per-group caches into Stats instead).
func report(st fidr.Stats, snap hostmodel.Snapshot, cacheHit float64) {
	fmt.Printf("writes=%d reads=%d unique=%d duplicate=%d stored/client=%.3f\n",
		st.ClientWrites, st.ClientReads, st.UniqueChunks, st.DuplicateChunks, st.ReductionRatio())
	if cacheHit >= 0 {
		fmt.Printf("host-memory B/B=%.3f host-CPU ns/B=%.3f cache-hit=%.3f\n",
			snap.MemPerClientByte(), snap.CPUNanosPerClientByte(), cacheHit)
	} else {
		fmt.Printf("host-memory B/B=%.3f host-CPU ns/B=%.3f\n",
			snap.MemPerClientByte(), snap.CPUNanosPerClientByte())
	}
}

// logMetrics periodically logs a one-line summary from the gatherer
// (works for a single registry and for the cluster's merged view).
func logMetrics(g metrics.Gatherer, every time.Duration) {
	for range time.Tick(every) {
		var writes, reads, dups, uniques, stored, client float64
		var ack metrics.HistogramSnapshot
		for _, m := range g.Snapshot() {
			switch m.Name {
			case "core.writes":
				writes = m.Value
			case "core.reads":
				reads = m.Value
			case "core.dup_chunks":
				dups = m.Value
			case "core.unique_chunks":
				uniques = m.Value
			case "core.stored_bytes":
				stored = m.Value
			case "core.client_bytes":
				client = m.Value
			case "latency.write_ack.ns":
				ack = m.Hist
			}
		}
		log.Printf("fidrd: writes=%.0f reads=%.0f unique=%.0f duplicate=%.0f stored=%s client=%s write-ack p50=%v p99=%v",
			writes, reads, uniques, dups,
			metrics.Bytes(uint64(stored)), metrics.Bytes(uint64(client)),
			time.Duration(ack.P50), time.Duration(ack.P99))
	}
}

// attachVolumes wires file-backed devices into the config. Both or
// neither must be set for a durable deployment.
func attachVolumes(cfg *fidr.Config, dataFile, tableFile string) error {
	if (dataFile == "") != (tableFile == "") {
		return fmt.Errorf("set both -data-file and -table-file (or neither)")
	}
	if dataFile == "" {
		return nil
	}
	dcfg := ssd.Samsung970Pro("data-ssd")
	dcfg.BackingFile = dataFile
	dev, err := ssd.New(dcfg)
	if err != nil {
		return err
	}
	tcfg := ssd.Samsung970Pro("table-ssd")
	tcfg.BackingFile = tableFile
	tcfg.CapacityBytes = 1 << 40
	tdev, err := ssd.New(tcfg)
	if err != nil {
		return err
	}
	cfg.DataSSD = dev
	cfg.TableSSD = tdev
	return nil
}
