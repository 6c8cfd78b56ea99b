//go:build !race

package pool

const raceDetector = false
