//go:build race

package sim

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of Put items by design.
const raceEnabled = true
