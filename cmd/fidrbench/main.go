// Command fidrbench regenerates the paper's tables and figures and the
// extension studies.
//
// Usage:
//
//	fidrbench [-ios N] all                     # every artifact, paper order
//	fidrbench [-ios N] fig11 table5            # selected artifacts
//	fidrbench [-ios N] cdc capacity archival   # chunking, ledger+GC, WAL shapes
//	fidrbench list                             # artifact names
//
// Output is plain-text tables with the paper's reported values quoted in
// footnotes, suitable for diffing against EXPERIMENTS.md. Every table is
// counts and ratios, identical per seed; anything clocked (throughput,
// latency, overheads) is measured by benchmark/ (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fidr"
)

func main() {
	ios := flag.Int("ios", 0, "workload size in IOs per run (0 = default)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fidrbench [-ios N] all | list | <experiment>...\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "experiments: %v\n", fidr.Experiments())
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
