//go:build !race

package simkern

const raceEnabled = false
