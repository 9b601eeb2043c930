package main

import (
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fidr"
)

// TestFlagSetGolden pins fidrd's knob surface the way the metric-name
// goldens pin the series: the sorted flag names registerFlags declares
// are the lines of testdata/fidrd_flags.txt. A flag is added or removed
// by editing that file in the same change, deliberately.
func TestFlagSetGolden(t *testing.T) {
	cfg := fidr.DefaultNodeConfig()
	fs := flag.NewFlagSet("fidrd", flag.ContinueOnError)
	registerFlags(fs, &cfg)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)

	want, err := os.ReadFile("testdata/fidrd_flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, "\n") + "\n"; got != string(want) {
		t.Errorf("fidrd's flag set moved (%d flags)\n--- got ---\n%s", len(names), got)
	}
	// No field without a flag: the config is one field per flag (-pprof's
	// is the handler) plus BuildVersion, BuildCommit and Logf.
	if fields := reflect.TypeOf(cfg).NumField(); fields != len(names)+3 {
		t.Errorf("NodeConfig has %d fields for %d flags; want flags + 3", fields, len(names))
	}
}
