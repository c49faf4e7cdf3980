//go:build race

package runtime_test

// raceEnabled thins the differential suite: the race detector makes the
// engine's goroutine hand-offs an order of magnitude slower.
const raceEnabled = true
