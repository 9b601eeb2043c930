// Command fidrbench regenerates the paper's tables and figures, and
// emits machine-readable benchmark artifacts.
//
// Usage:
//
//	fidrbench [-ios N] all            # every artifact, paper order
//	fidrbench [-ios N] fig11 table5   # selected artifacts
//	fidrbench list                    # artifact names
//	fidrbench [-ios N] [-out dir] bench [experiment...]
//
// Output is plain-text tables with the paper's reported values quoted in
// footnotes, suitable for diffing against EXPERIMENTS.md.
//
// The bench verb drives instrumented runs and writes one
// BENCH_<experiment>.json per experiment to -out (default
// bench-artifacts/): throughput, dedup/reduction ratios, and
// p50/p90/p99 per-stage latencies distilled from the live metrics
// registry. With no experiment names it runs them all. The JSON schema
// is documented in README.md.
//
// -chunker selects the write chunking mode for bench runs: "fixed"
// (default) or "cdc" (content-defined, variable-size chunks cut by the
// skip-ahead gear chunker; -cdc-min/-cdc-avg/-cdc-max size the chunks).
// CDC runs the same experiments end to end — variable chunks through NIC
// buffering, dedup, compression, container packing, and (archival,
// capacity) the WAL, checkpoint, recovery and GC.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fidr"
	"fidr/internal/chunk"
)

func main() {
	ios := flag.Int("ios", 0, "workload size in IOs per run (0 = default)")
	out := flag.String("out", "bench-artifacts", "output directory for bench artifacts")
	chunker := flag.String("chunker", "fixed", "bench chunking mode: fixed or cdc")
	cdcMin := flag.Int("cdc-min", 0, "CDC minimum chunk bytes; 0 = default")
	cdcAvg := flag.Int("cdc-avg", 0, "CDC average (target) chunk bytes; 0 = default")
	cdcMax := flag.Int("cdc-max", 0, "CDC maximum chunk bytes; 0 = default")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fidrbench [-ios N] all | list | <experiment>... | [-out dir] bench [name...]\n")
		fmt.Fprintf(os.Stderr, "experiments: %v\n", fidr.Experiments())
		fmt.Fprintf(os.Stderr, "bench experiments: %v\n", fidr.BenchExperiments())
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if args[0] == "list" {
		for _, name := range fidr.Experiments() {
			fmt.Println(name)
		}
		return
	}
	mode, err := chunk.ParseMode(*chunker)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fidrbench: -chunker: %v\n", err)
		os.Exit(2)
	}
	chunking := chunk.Config{Mode: mode, Min: *cdcMin, Avg: *cdcAvg, Max: *cdcMax}
	if args[0] == "bench" {
		if err := runBench(args[1:], *ios, *out, chunking); err != nil {
			fmt.Fprintf(os.Stderr, "fidrbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	names := args
	if args[0] == "all" {
		names = fidr.Experiments()
	}
	failed := false
	for _, name := range names {
		start := time.Now()
		out, err := fidr.RunExperiment(name, *ios)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fidrbench: %s: %v\n", name, err)
			failed = true
			continue
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// runBench executes the named bench experiments (all when empty) and
// writes one BENCH_<name>.json artifact each.
func runBench(names []string, ios int, outDir string, chunking chunk.Config) error {
	if len(names) == 0 {
		names = fidr.BenchExperiments()
	}
	for _, name := range names {
		start := time.Now()
		art, err := fidr.RunBenchExperimentChunker(name, ios, chunking)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path, err := fidr.WriteBenchArtifact(outDir, art)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%s: %.1f MB/s, dedup %.3f, reduction %.3f -> %s (%v)\n",
			name, art.ThroughputMBps, art.DedupRatio, art.ReductionRatio,
			path, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
