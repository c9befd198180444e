//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly) || race

package evalstore

// mapArena allocates an arena on the Go heap where anonymous mappings
// are not used: on other platforms, and under the race detector, which
// checks only heap and global memory — so -race runs check every arena
// access too.
func mapArena(size int) []byte { return make([]byte, size) }

func unmapArena([]byte) {}
