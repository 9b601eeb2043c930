//go:build race

package core

// The race detector's instrumentation allocates on its own account, so
// allocation ceilings are not judged under it.
func init() { raceEnabled = true }
