// Command fidrd runs a FIDR (or baseline) storage node speaking the
// simplified storage protocol of §6.2 over TCP.
//
// Usage:
//
//	fidrd [-addr :9400] [-arch fidr|fidr-nic|baseline] [-groups 1]
//	      [-data-file F -table-file F] [-wal-file F] [-recover]
//	      [-chunker fixed|cdc] [-metrics-addr :9401] [-pprof]
//	      [-health-dir DIR] ...            (fidrd -h lists every flag)
//
// The daemon is flags -> fidr.NodeConfig -> fidr.NewNode -> wait for
// SIGINT/SIGTERM -> Close -> print the end-of-run report; everything it
// serves is built by NewNode (node.go). README.md "Operations" tours the
// HTTP endpoints behind -metrics-addr and the planes behind them.
//
// A node is -groups device groups (§5.6), each a full server, behind
// one async front-end (§6.2's device manager); with more than one,
// client LBAs are sharded across them. Three combinations are refused
// at start-up: -chunker=cdc with -groups > 1 (the router shards by
// address ahead of the chunker), file-backed volumes or -recover with
// -groups > 1 (volumes do not record the group count that sharded
// them), and -recover without both volumes.
//
// With -data-file/-table-file the volumes are durable; -wal-file adds a
// group-local write-ahead log (<wal-file>.g<i> per group when there are
// several) so a crash between checkpoints loses nothing committed:
// restart with -recover and the same -chunker flags (fidrfsck -wal-file
// checks such a volume offline). SIGINT or SIGTERM answers the requests
// already read, flushes, checkpoints durable volumes and exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"fidr"
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

// registerFlags declares fidrd's whole flag surface on fs — one flag
// per NodeConfig field, defaulting to the field's current value — and
// returns -pprof, which main turns into the config's handler.
func registerFlags(fs *flag.FlagSet, c *fidr.NodeConfig) (pprof *bool) {
	fs.StringVar(&c.Addr, "addr", c.Addr, "listen address")
	fs.StringVar(&c.Arch, "arch", c.Arch, "architecture: fidr, fidr-nic, baseline")
	fs.IntVar(&c.Batch, "batch", c.Batch, "accelerator batch size in chunks")
	fs.IntVar(&c.ContainerSize, "container-size", c.ContainerSize, "compressed-chunk container size in bytes; 0 = architecture default")
	fs.IntVar(&c.Groups, "groups", c.Groups, "device groups; >1 serves a sharded cluster (in-memory only)")
	fs.StringVar(&c.DataFile, "data-file", c.DataFile, "file-backed data volume (durable); empty = in-memory")
	fs.StringVar(&c.TableFile, "table-file", c.TableFile, "file-backed table volume (durable); empty = in-memory")
	fs.StringVar(&c.WALFile, "wal-file", c.WALFile, "write-ahead log file; mutations since the last checkpoint survive a crash")
	fs.BoolVar(&c.Recover, "recover", c.Recover, "recover state from a checkpoint on the table volume (and replay -wal-file when set)")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", c.MetricsAddr, "HTTP address serving /metrics and /traces; empty = disabled")
	fs.DurationVar(&c.SeriesInterval, "series-interval", c.SeriesInterval, "sampling interval for /metrics/series")
	fs.DurationVar(&c.SlowMin, "slow-min", c.SlowMin, "slow-trace retention never keeps requests faster than this")
	fs.IntVar(&c.QueueDepth, "queue-depth", c.QueueDepth, "async front-end per-group queue depth")
	fs.StringVar(&c.SLOSpec, "slo-spec", c.SLOSpec, "latency objectives as name:hist:threshold:target,...; empty = built-in write/read objectives")
	pprof = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on -metrics-addr")
	fs.StringVar(&c.HealthDir, "health-dir", c.HealthDir, "snapshot-recorder directory; empty = recorder disabled")
	fs.DurationVar(&c.WatchdogInterval, "watchdog-interval", c.WatchdogInterval, "liveness probe cadence")
	fs.DurationVar(&c.WatchdogDeadline, "watchdog-deadline", c.WatchdogDeadline, "liveness deadline before a probe reports a stall")
	fs.StringVar(&c.Chunker, "chunker", c.Chunker, "write chunking mode: fixed or cdc (content-defined, variable-size extents; single group only)")
	fs.IntVar(&c.CDCMin, "cdc-min", c.CDCMin, "CDC minimum chunk bytes; 0 = default")
	fs.IntVar(&c.CDCAvg, "cdc-avg", c.CDCAvg, "CDC average (target) chunk bytes; 0 = default")
	fs.IntVar(&c.CDCMax, "cdc-max", c.CDCMax, "CDC maximum chunk bytes; 0 = default")
	return pprof
}

func main() {
	log.SetPrefix("fidrd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	cfg := fidr.DefaultNodeConfig()
	cfg.BuildVersion, cfg.BuildCommit, cfg.Logf = buildVersion, buildCommit, log.Printf
	pprof := registerFlags(flag.CommandLine, &cfg)
	flag.Parse()
	switch {
	case *pprof && cfg.MetricsAddr == "":
		log.Print("-pprof requires -metrics-addr; ignoring")
	case *pprof:
		// net/http/pprof registers on the default mux at import.
		cfg.Pprof = http.DefaultServeMux
	}

	node, err := fidr.NewNode(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	report, err := node.Close()
	if err != nil {
		log.Printf("shutdown: %v", err)
	}
	fmt.Print(report)
}
