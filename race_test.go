//go:build race

package fidr_test

// The race detector's instrumentation allocates on its own account, so
// allocation pins are not judged under it.
func init() { raceEnabled = true }
