package fidr

import (
	"testing"

	"fidr/internal/metrics"
)

// TestRegistryConsistent guards the artifact list: names are non-empty
// and unique (lookup takes the first match).
func TestRegistryConsistent(t *testing.T) {
	seen := make(map[string]bool)
	for _, name := range Experiments() {
		if name == "" || seen[name] {
			t.Errorf("empty or duplicate experiment name %q", name)
		}
		seen[name] = true
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
