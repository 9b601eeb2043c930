package ssd

import "syscall"

// mapSlab maps n bytes of anonymous memory outside the Go heap and
// advises huge pages for it, so a slab's first touch faults one 2-MiB
// page rather than 512 small ones. The advice is only a hint: where the
// kernel declines it, the slab is served in small pages.
func mapSlab(n int) ([]byte, error) {
	m, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	_ = syscall.Madvise(m, syscall.MADV_HUGEPAGE)
	return m, nil
}

// unmapSlab returns a slab from mapSlab to the kernel.
func unmapSlab(m []byte) { _ = syscall.Munmap(m) }
