//go:build !race

package coop

const raceEnabled = false
