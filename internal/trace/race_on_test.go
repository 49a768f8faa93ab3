//go:build race

package trace_test

// raceDetectorEnabled reports whether the test binary was built with -race.
const raceDetectorEnabled = true
