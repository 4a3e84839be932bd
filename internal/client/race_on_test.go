//go:build race

package client

// raceEnabled reports whether the race detector is on; it perturbs
// allocation counts, so allocation pins skip under it.
const raceEnabled = true
