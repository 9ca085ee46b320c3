//go:build !race

package parexec_test

// raceEnabled reports whether the race detector instruments this test
// binary; timing floors relax under its overhead.
const raceEnabled = false
