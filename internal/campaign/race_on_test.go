//go:build race

package campaign

// raceEnabled skips allocation pins: the race detector allocates on its
// own.
const raceEnabled = true
