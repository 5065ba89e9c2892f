//go:build !race

package herd

const raceEnabled = false
