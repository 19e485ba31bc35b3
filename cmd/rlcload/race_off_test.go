//go:build !race

package main

// raceEnabled reports whether the race detector is compiled in; the
// timed smoke run skips under it.
const raceEnabled = false
