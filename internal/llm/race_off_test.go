//go:build !race

package llm_test

const raceDetector = false
