//go:build !race

package gm

// raceEnabled reports whether the race detector instruments this test
// binary. Under it sync.Pool drops a random share of the packets put
// back, so the packet pool allocates and allocation counts through GM
// are not reproducible; the allocation pins run only without it.
const raceEnabled = false
