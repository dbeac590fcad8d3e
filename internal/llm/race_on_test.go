//go:build race

package llm_test

// raceDetector reports that the test binary runs under the race detector,
// where single-goroutine CPU-bound sweeps cost ten times as much and find
// nothing.
const raceDetector = true
