//go:build (linux || darwin || freebsd || netbsd || openbsd || dragonfly) && !race

package evalstore

import "syscall"

// mapArena maps size bytes of anonymous memory: outside the Go heap, and
// resident only as far as frames have been written. A failed mapping
// falls back to the heap.
func mapArena(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, size)
	}
	return b
}

// unmapArena releases a mapping from mapArena (a heap fallback is left
// to the collector).
func unmapArena(b []byte) { _ = syscall.Munmap(b) }
