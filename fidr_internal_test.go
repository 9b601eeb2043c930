package fidr

import (
	"testing"

	"fidr/internal/metrics"
)

// TestRegistryConsistent guards the experiment registry: names are
// unique (lookup takes the first match) and every entry has a runner.
func TestRegistryConsistent(t *testing.T) {
	seen := make(map[string]bool, len(experimentRegistry))
	for _, e := range experimentRegistry {
		if seen[e.name] {
			t.Errorf("duplicate experiment name %q", e.name)
		}
		seen[e.name] = true
		if e.run == nil {
			t.Errorf("experiment %q has no runner", e.name)
		}
	}
}

// TestGroupPrefix: per-group series are named group<N>. for every group
// index a cluster can have (0 .. maxGroups-1).
func TestGroupPrefix(t *testing.T) {
	for i, want := range map[int]string{0: "group0.", 9: "group9.", 10: "group10.", maxGroups - 1: "group63."} {
		if got := metrics.GroupPrefix(i); got != want {
			t.Errorf("GroupPrefix(%d) = %q, want %q", i, got, want)
		}
	}
}
