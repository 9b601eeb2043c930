//go:build race

package lanes

// The race detector's instrumentation allocates on its own account, so
// the zero-allocation round is not judged under it.
func init() { raceEnabled = true }
