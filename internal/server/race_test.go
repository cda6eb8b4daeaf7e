//go:build race

package server

// raceEnabled reports whether the race detector is on. sync.Pool
// deliberately drops items at random under the race detector, so
// allocation-count assertions are meaningless there.
const raceEnabled = true
