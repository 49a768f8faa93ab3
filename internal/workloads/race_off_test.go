//go:build !race

package workloads

// raceDetectorEnabled reports whether the test binary was built with
// -race; see race_on_test.go for the counterpart.
const raceDetectorEnabled = false
