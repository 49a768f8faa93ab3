//go:build race

package workloads

// raceDetectorEnabled reports whether the test binary was built with -race.
const raceDetectorEnabled = true
