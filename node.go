package fidr

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fidr/internal/chunk"
	"fidr/internal/core"
	"fidr/internal/hostmodel"
	"fidr/internal/metrics"
	"fidr/internal/metrics/health"
	"fidr/internal/proto"
	"fidr/internal/ssd"
	"fidr/internal/tablecache"
	"fidr/internal/trace/span"
)

// NodeConfig describes one storage node: n >= 1 device groups built the
// same way behind one async front-end (the paper's device manager,
// §6.2), the protocol listener and the observability planes. Every
// field but the last four is one fidrd flag of the same name; start
// from DefaultNodeConfig.
type NodeConfig struct {
	Addr          string // protocol listen address
	Arch          string // fidr, fidr-nic or baseline
	Batch         int    // accelerator batch size in chunks
	ContainerSize int    // compressed-chunk container bytes; 0 = architecture default
	Groups        int    // device groups; > 1 shards client LBAs across them (§5.6)
	QueueDepth    int    // async front-end per-group queue depth: callers admitted at once

	DataFile  string // file-backed data volume; empty = in memory
	TableFile string // file-backed table volume; empty = in memory
	WALFile   string // write-ahead log; group i of n > 1 logs to <WALFile>.g<i>
	Recover   bool   // resume from the table volume's checkpoint, replaying the WAL

	Chunker                string // fixed or cdc
	CDCMin, CDCAvg, CDCMax int    // CDC chunk bounds in bytes; 0 = default

	MetricsAddr      string        // HTTP observability address; empty = none
	SeriesInterval   time.Duration // /metrics/series and SLO sampling cadence
	SlowMin          time.Duration // slow-trace retention floor
	SLOSpec          string        // name:hist:threshold:target,...; empty = write/read defaults
	HealthDir        string        // snapshot-recorder directory; empty = recorder off
	WatchdogInterval time.Duration // liveness probe cadence
	WatchdogDeadline time.Duration // liveness deadline before a probe reports a stall

	// Pprof, when set, is mounted under /debug/pprof/ on MetricsAddr
	// (fidrd -pprof hands over http.DefaultServeMux; this package never
	// imports net/http/pprof, so importing it registers nothing).
	Pprof http.Handler
	// BuildVersion and BuildCommit label the build_info gauge.
	BuildVersion, BuildCommit string
	// Logf receives start-up and shutdown notes; nil discards them.
	Logf func(format string, args ...any)
}

// DefaultNodeConfig returns fidrd's defaults: one in-memory FIDR group on
// :9400 with no HTTP endpoint.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		Addr: ":9400", Arch: "fidr", Batch: 64, Groups: 1, QueueDepth: 64, Chunker: "fixed",
		SeriesInterval: time.Second, SlowMin: time.Millisecond,
		WatchdogInterval: 250 * time.Millisecond, WatchdogDeadline: 2 * time.Second,
		BuildVersion: "dev", BuildCommit: "none",
	}
}

// Sizes and gates that were fidrd flags nothing ever set: one value
// each since they were introduced, so they are constants.
const (
	recentTraces    = 256  // requests on /traces
	slowTraces      = 64   // requests on /traces/slow
	sampledTraces   = 512  // distinct sampled traces behind /traces/spans
	slowQuantile    = 0.99 // slow retention keeps totals above this quantile (and SlowMin)
	seriesSamples   = 300  // ticks kept per series and per SLO window
	journalEvents   = 1024 // events kept for /events
	healthSnapshots = 8    // on-disk snapshots kept in HealthDir
	gcThreshold     = 0.25 // /capacity GC-advice dead fraction; ?threshold= overrides per scrape
)

// A scraper that has not sent its request head by then is not one;
// without a bound a silent client holds its connection forever.
const metricsReadHeaderTimeout = 5 * time.Second

// resolve checks c and derives what it describes: the per-group server
// configuration and the latency objectives. Every combination a node
// refuses is refused here, naming the flags involved.
func (c NodeConfig) resolve() (Config, []metrics.Objective, error) {
	archs := map[string]Arch{"fidr": FIDRFull, "fidr-nic": FIDRNicP2P, "baseline": Baseline}
	arch, ok := archs[c.Arch]
	if !ok {
		return Config{}, nil, fmt.Errorf("fidr: -arch: unknown architecture %q (want fidr, fidr-nic or baseline)", c.Arch)
	}
	cfg := DefaultConfig(arch)
	switch c.Chunker {
	case "", "fixed":
	case "cdc":
		cfg.Chunking = chunk.Config{Min: c.CDCMin, Avg: c.CDCAvg, Max: c.CDCMax}
		if cfg.Chunking == (chunk.Config{}) {
			cfg.Chunking = chunk.DefaultCDC
		}
	default:
		return Config{}, nil, fmt.Errorf("fidr: -chunker: unknown chunking %q (want fixed or cdc)", c.Chunker)
	}
	if err := checkGroups(cfg, c.Groups); err != nil {
		return Config{}, nil, err
	}
	durable := c.DataFile != "" && c.TableFile != ""
	switch {
	case c.QueueDepth < 1:
		return Config{}, nil, fmt.Errorf("fidr: -queue-depth %d: a group admits at least one request", c.QueueDepth)
	case (c.DataFile == "") != (c.TableFile == ""):
		return Config{}, nil, errors.New("fidr: set both -data-file and -table-file (or neither)")
	case c.Groups > 1 && (durable || c.Recover):
		// Volumes do not record how many groups sharded them; a restart
		// with another -groups would silently misroute every LBA.
		return Config{}, nil, errors.New("fidr: -groups > 1 is incompatible with -data-file/-table-file/-recover")
	case c.Recover && !durable:
		return Config{}, nil, errors.New("fidr: -recover requires -data-file and -table-file")
	case c.WatchdogDeadline <= 0:
		// An owner caught mid-request has been busy for longer than no
		// time at all: every tick would report a healthy node stalled.
		return Config{}, nil, fmt.Errorf("fidr: -watchdog-deadline %v: the stall deadline must be positive", c.WatchdogDeadline)
	}
	objs := metrics.DefaultObjectives()
	if c.SLOSpec != "" {
		var err error
		if objs, err = metrics.ParseObjectives(c.SLOSpec); err != nil {
			return Config{}, nil, fmt.Errorf("fidr: -slo-spec: %w", err)
		}
	}
	cfg.BatchChunks = c.Batch
	if c.ContainerSize > 0 {
		cfg.ContainerSize = c.ContainerSize
	}
	return cfg, objs, nil
}

// nodeGroup is one device group with what the node opened for it.
type nodeGroup struct {
	srv     *Server
	wal     *core.WAL  // nil without WALFile
	volumes []*ssd.SSD // the file-backed data and table volumes; nil in memory
}

// close releases the group's log and volume files.
func (g nodeGroup) close() error {
	var errs []error
	if g.wal != nil {
		errs = append(errs, g.wal.Close())
	}
	for _, v := range g.volumes {
		errs = append(errs, v.Close())
	}
	return errors.Join(errs...)
}

// buildGroup builds group i from cfg: file-backed volumes when named,
// its own write-ahead log when named (a log is group-local, like a
// group's SSDs), then a fresh or a recovered server.
func (c NodeConfig) buildGroup(cfg Config, i int, logf func(string, ...any)) (g nodeGroup, err error) {
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	if c.DataFile != "" {
		dcfg := ssd.Samsung970Pro("data-ssd")
		dcfg.BackingFile = c.DataFile
		if cfg.DataSSD, err = ssd.New(dcfg); err != nil {
			return g, err
		}
		g.volumes = append(g.volumes, cfg.DataSSD)
		tcfg := ssd.Samsung970Pro("table-ssd")
		tcfg.BackingFile = c.TableFile
		tcfg.CapacityBytes = 1 << 40
		if cfg.TableSSD, err = ssd.New(tcfg); err != nil {
			return g, err
		}
		g.volumes = append(g.volumes, cfg.TableSSD)
	}
	if c.WALFile != "" {
		path := c.WALFile
		if c.Groups > 1 {
			path = fmt.Sprintf("%s.g%d", path, i)
		}
		if g.wal, err = core.OpenWALFile(path); err != nil {
			return g, err
		}
		if !c.Recover {
			// A fresh start must not replay a previous deployment's log
			// over an empty server.
			if err = g.wal.Reset(); err != nil {
				return g, err
			}
		}
		cfg.WAL = g.wal
	}
	if !c.Recover {
		g.srv, err = NewServer(cfg)
		return g, err
	}
	if g.srv, err = core.RecoverServer(cfg); err == nil && g.wal != nil {
		rr := g.srv.LastRecovery()
		logf("replayed %d WAL records (checkpoint seq %d, genesis=%v)",
			rr.ReplayedRecords, rr.CheckpointSeq, rr.FromGenesis)
	}
	return g, err
}

// Node is a running storage node: what fidrd serves. It owns everything
// NewNode started or opened; Close releases all of it.
type Node struct {
	logf     func(format string, args ...any)
	groups   []nodeGroup
	cluster  *Cluster // every group's server, for the summed report
	async    *Async
	listener *proto.Listener
	httpLn   net.Listener // nil without MetricsAddr
	httpSrv  *http.Server

	stop chan struct{}  // ends the watchdog and series tickers
	bg   sync.WaitGroup // tickers, the HTTP server, snapshot captures

	closeOnce sync.Once
	report    NodeReport
	closeErr  error
}

// NodeReport is a closed node's end-of-run summary: the groups' summed
// counters and host-resource ledgers, and the table-cache hit rate over
// every group's lookups.
type NodeReport struct {
	Stats    Stats
	Host     hostmodel.Snapshot
	CacheHit float64
}

// String renders the two summary lines fidrd prints at exit.
func (r NodeReport) String() string {
	return fmt.Sprintf("writes=%d reads=%d unique=%d duplicate=%d stored/client=%.3f\n"+
		"host-memory B/B=%.3f host-CPU ns/B=%.3f cache-hit=%.3f\n",
		r.Stats.ClientWrites, r.Stats.ClientReads, r.Stats.UniqueChunks, r.Stats.DuplicateChunks,
		r.Stats.ReductionRatio(), r.Host.MemPerClientByte(), r.Host.CPUNanosPerClientByte(), r.CacheHit)
}

// NewNode builds and starts the node c describes and returns once both
// of its addresses are bound and the protocol listener is accepting. On
// error nothing is left running or open.
func NewNode(c NodeConfig) (n *Node, err error) {
	cfg, objectives, err := c.resolve()
	if err != nil {
		return nil, err
	}
	n = &Node{logf: c.Logf, stop: make(chan struct{})}
	if n.logf == nil {
		n.logf = func(string, ...any) {}
	}
	defer func() {
		if err != nil {
			if n.async != nil {
				n.async.Close()
			}
			n.release()
			n = nil
		}
	}()

	servers := make([]*Server, c.Groups)
	for i := range servers {
		g, err := c.buildGroup(cfg, i, n.logf)
		if err != nil {
			return n, fmt.Errorf("fidr: group %d: %w", i, err)
		}
		n.groups = append(n.groups, g)
		servers[i] = g.srv
	}
	n.cluster = &Cluster{groups: servers}

	// One trace store, one event journal and one front-end registry
	// across every group; each group labels what it hands them with its
	// index. The collector attaches after observability is on — a server
	// without an observer ignores it.
	col := span.NewCollector(recentTraces, slowTraces, sampledTraces)
	col.SetSlowGate(slowQuantile, c.SlowMin)
	journal := NewEventJournal(journalEvents)
	front := metrics.NewRegistry()
	for i, srv := range servers {
		srv.EnableObservability(nil)
		srv.SetSpanCollector(col, i)
		srv.SetEventJournal(journal, i)
	}
	// The group count decides two things only: who routes, and how the
	// group registries compose. One group is served bare (no routing hop,
	// unprefixed series); several shard behind a Cluster, whose view
	// merges them and adds the per-group and balance series.
	var backend Store
	var view metrics.Gatherer
	if len(servers) == 1 {
		reg := servers[0].MetricsRegistry()
		backend, view = servers[0], metrics.Multi(reg, metrics.CapacityRatios(reg))
	} else {
		backend, view = n.cluster, n.cluster.observe()
	}

	// The async front-end guards the servers from here on: each request
	// runs on its caller as its group's owner, at most QueueDepth callers
	// admitted per group for backpressure.
	if n.async, err = NewAsync(backend, c.QueueDepth); err != nil {
		return n, err
	}
	n.async.EnableObservability(front)
	n.async.SetSpanCollector(col)
	store, err := NewAsyncStore(n.async, cfg.ChunkSize)
	if err != nil {
		return n, err
	}
	// Process-wide series are mounted once at the top of the view, never
	// inside a group registry, so the cluster merge cannot multiply them.
	view = metrics.Multi(view, front, metrics.JournalStats(journal),
		health.Runtime(), health.BuildInfo(c.BuildVersion, c.BuildCommit),
		n.async.DepthGatherer())

	// Liveness: a heartbeat and a stuck-queue probe per async group, an
	// fsync-deadline probe per log; the accept probe joins once there is
	// a listener.
	watchdog := health.NewWatchdog()
	watchdog.Instrument(front)
	watchdog.SetEventJournal(journal)
	for i, g := range n.groups {
		watchdog.Add(health.HeartbeatProbe(
			fmt.Sprintf("async.worker.g%d", i), n.async.WorkerHeartbeat(i), c.WatchdogDeadline))
		watchdog.Add(health.ProgressProbe(
			fmt.Sprintf("async.queue.g%d", i), c.WatchdogDeadline,
			func() int { return n.async.QueueDepth(i) }, func() uint64 { return n.async.Completed(i) }))
		if w := g.wal; w != nil {
			watchdog.Add(health.FuncProbe(
				fmt.Sprintf("wal.fsync.g%d", i), c.WatchdogDeadline, func() (bool, string) {
					d, inFlight := w.FsyncInFlight(time.Now())
					if !inFlight || d <= c.WatchdogDeadline {
						return false, ""
					}
					return true, "fsync in flight for " + d.Round(time.Millisecond).String()
				}))
		}
	}

	slo := metrics.NewSLO(view, objectives, seriesSamples)
	slo.Instrument(front)
	slo.SetEventJournal(journal)

	// The snapshot recorder captures on watchdog trips and SLO breach
	// edges, off the goroutine that noticed, so probe and sampling cadence
	// never wait on disk.
	var recorder *health.Recorder
	if c.HealthDir != "" {
		recorder, err = health.NewRecorder(health.RecorderOptions{
			Dir:          c.HealthDir,
			MaxSnapshots: healthSnapshots,
			Gatherer:     view,
			Journal:      journal,
			Slow:         col.RenderSlow,
			Build:        map[string]string{"version": c.BuildVersion, "commit": c.BuildCommit},
		})
		if err != nil {
			return n, fmt.Errorf("fidr: -health-dir: %w", err)
		}
		recorder.Instrument(front)
		capture := func(reason, detail, trace string) {
			n.bg.Add(1)
			go func() {
				defer n.bg.Done()
				if _, err := recorder.Trigger(reason, detail, trace); err != nil {
					n.logf("snapshot: %v", err)
				}
			}()
		}
		watchdog.OnStall(capture)
		slo.OnBreach(func(objective string) { capture("slo."+objective, "error budget breached", "") })
	}

	// Both addresses are bound before anything is served from either, so
	// a busy port is a start-up error and not a daemon serving blind.
	var sampler *metrics.Sampler
	if c.MetricsAddr != "" {
		if n.httpLn, err = net.Listen("tcp", c.MetricsAddr); err != nil {
			return n, fmt.Errorf("fidr: -metrics-addr: %w", err)
		}
		sampler = metrics.NewSampler(view, seriesSamples)
	}
	n.listener, err = proto.Serve(store, c.Addr,
		proto.WithSpanCollector(col),
		proto.WithMetrics(front),
		// The async front serializes per group; connections need not
		// serialize against each other.
		proto.WithConcurrentStore())
	if err != nil {
		return n, fmt.Errorf("fidr: -addr: %w", err)
	}
	watchdog.Add(health.FuncProbe("proto.accept", c.WatchdogDeadline, func() (bool, string) {
		if n.listener.Accepting() {
			return false, ""
		}
		return true, "accept loop not running"
	}))
	n.logf("%s node, %d group(s), listening on %s", cfg.Arch, c.Groups, n.Addr())

	n.bg.Add(2)
	go func() {
		defer n.bg.Done()
		watchdog.Run(c.WatchdogInterval, n.stop)
	}()
	go func() {
		// One ticker for the sampler and the SLO evaluator: the
		// evaluator's windows are counted in sampler ticks.
		defer n.bg.Done()
		every := c.SeriesInterval
		if every <= 0 {
			every = time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for at := time.Now(); ; {
			slo.Sample(at)
			if sampler != nil {
				sampler.Sample(at)
			}
			select {
			case at = <-t.C:
			case <-n.stop:
				return
			}
		}
	}()
	if n.httpLn != nil {
		mux := http.NewServeMux()
		// Ready while the protocol listener accepts: 503 again once Close
		// has begun. The routes are the node's whole HTTP surface beside
		// what Handler itself serves, in the order GET / lists them.
		mux.Handle("/", metrics.Handler(view, n.listener.Accepting, []metrics.Route{
			{Path: "/metrics/series", Help: "sampled time series (JSON)", Handler: sampler},
			{Path: "/traces", Help: "recent request traces", Handler: metrics.Text(col.RenderRecent)},
			{Path: "/traces/slow", Help: "slow-trace retention", Handler: metrics.Text(col.RenderSlow)},
			{Path: "/traces/spans", Help: "distributed-trace span trees (?id=<trace-id>)", Handler: col},
			{Path: "/slo", Help: "SLO error budgets and burn rates (JSON)", Handler: slo},
			// Capacity views run as each group's owner (a group's ledger
			// is single-writer), so a scrape waits for at most the
			// requests already admitted to the group.
			{Path: "/capacity", Help: "reduction attribution, garbage debt, GC advice (JSON)",
				Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					th := gcThreshold
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
					serveJSON(w, rep, err)
				})},
			{Path: "/capacity/containers", Help: "container heatmap by dead fraction and age (JSON)",
				Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					hm, err := store.ContainerHeatmap()
					serveJSON(w, hm, err)
				})},
			{Path: "/events", Help: "structured event journal (JSONL; ?since= ?type= ?n=)", Handler: journal},
			{Path: "/debug/bundle", Help: "snapshot-recorder bundle (tar.gz; ?n=)", Handler: bundleHandler(recorder)},
		}))
		if c.Pprof != nil {
			mux.Handle("/debug/pprof/", c.Pprof)
		}
		n.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: metricsReadHeaderTimeout}
		n.bg.Add(1)
		go func() {
			defer n.bg.Done()
			if err := n.httpSrv.Serve(n.httpLn); !errors.Is(err, http.ErrServerClosed) {
				n.logf("metrics server: %v", err)
			}
		}()
		n.logf("metrics on http://%s/metrics", n.MetricsAddr())
	}
	return n, nil
}

// serveJSON answers with v as JSON, or with err as a 500.
func serveJSON(w http.ResponseWriter, v any, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// bundleHandler serves /debug/bundle: the recorder when armed, else a
// 503 that says how to arm it, so fidrcli doctor can tell "disabled"
// from "unreachable".
func bundleHandler(r *health.Recorder) http.Handler {
	if r != nil {
		return r
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "snapshot recorder disabled; restart fidrd with -health-dir",
			http.StatusServiceUnavailable)
	})
}

// Addr is the bound protocol address.
func (n *Node) Addr() string { return n.listener.Addr().String() }

// MetricsAddr is the bound HTTP address, empty when none is served.
func (n *Node) MetricsAddr() string {
	if n.httpLn == nil {
		return ""
	}
	return n.httpLn.Addr().String()
}

// release stops the tickers and the HTTP server, waits for them, and
// closes every group's log and volumes. It runs once per node: at the
// end of Close, or from a NewNode that failed part-way (any member may
// still be unset then).
func (n *Node) release() error {
	close(n.stop)
	var errs []error
	switch {
	case n.httpSrv != nil:
		// Close, not Shutdown: a client that never finishes its request
		// must not hold the node open.
		errs = append(errs, n.httpSrv.Close())
	case n.httpLn != nil:
		errs = append(errs, n.httpLn.Close())
	}
	n.bg.Wait()
	for _, g := range n.groups {
		errs = append(errs, g.close())
	}
	return errors.Join(errs...)
}

// Close shuts the node down in the order its parts depend on: stop
// accepting and answer what was already read (attached idle clients
// are dropped), let the requests in flight finish and flush every group, checkpoint the
// durable ones, then close every log and volume, the tickers and the
// HTTP server. It returns the end-of-run report and the joined errors of
// those steps; later calls return the same without doing anything.
func (n *Node) Close() (NodeReport, error) {
	n.closeOnce.Do(func() {
		errs := []error{n.listener.Close()}
		errs = append(errs, n.async.Close())
		for i, g := range n.groups {
			if g.volumes == nil {
				continue
			}
			if err := g.srv.Checkpoint(); err != nil {
				errs = append(errs, fmt.Errorf("fidr: group %d checkpoint: %w", i, err))
				continue
			}
			n.logf("checkpoint written; restart with -recover to resume")
		}
		// The front-end is closed; nothing else touches the servers.
		n.report = NodeReport{Stats: n.cluster.Stats(), Host: n.cluster.Snapshot()}
		var cache tablecache.Stats
		for _, g := range n.groups {
			cs := g.srv.CacheStats()
			cache.Hits, cache.Lookups = cache.Hits+cs.Hits, cache.Lookups+cs.Lookups
		}
		n.report.CacheHit = cache.HitRate()
		n.closeErr = errors.Join(append(errs, n.release())...)
	})
	return n.report, n.closeErr
}
