//go:build !linux

package ssd

// mapSlab allocates a slab on the Go heap where anonymous mappings are
// not used.
func mapSlab(n int) ([]byte, error) { return make([]byte, n), nil }

// unmapSlab leaves a heap slab to the collector.
func unmapSlab([]byte) {}
