package fidr

import "testing"

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
