//go:build race

package run

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under instrumentation (a sync.Pool drops a share of
// what is put into it).
const raceEnabled = true
