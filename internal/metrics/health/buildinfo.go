package health

import (
	"runtime"
	"strings"

	"fidr/internal/metrics"
)

// BuildInfo is the conventional info-style gauge: a constant 1 whose
// labels carry the build identity (version, commit, Go toolchain), so
// a Prometheus scrape — or a recorder snapshot — pins exactly
// which binary produced the numbers around it. Version and commit are
// stamped by the Makefile via -ldflags; the Go version comes from the
// running toolchain.
//
// Like the runtime collector this is process-wide: mount it once at the
// top of a composed view, never inside per-group registries.
func BuildInfo(version, commit string) metrics.Gatherer {
	if version == "" {
		version = "dev"
	}
	if commit == "" {
		commit = "none"
	}
	labels := strings.Join([]string{
		metrics.LabelPair("version", version),
		metrics.LabelPair("commit", commit),
		metrics.LabelPair("go_version", runtime.Version()),
	}, ",")
	m := []metrics.Metric{{Kind: "gauge", Name: "build_info", Labels: labels, Value: 1}}
	return metrics.GathererFunc(func() []metrics.Metric {
		out := make([]metrics.Metric, len(m))
		copy(out, m)
		return out
	})
}
