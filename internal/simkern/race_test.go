//go:build race

package simkern

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of Put items by design.
const raceEnabled = true
