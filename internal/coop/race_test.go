//go:build race

package coop

// raceEnabled reports a -race build, whose instrumentation slows the
// two engines by different factors.
const raceEnabled = true
