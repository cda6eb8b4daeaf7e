//go:build race

package core

// raceEnabled reports whether the race detector is on. sync.Pool drops
// items at random under it, so allocation bounds do not hold there.
const raceEnabled = true
