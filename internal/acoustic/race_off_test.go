//go:build !race

package acoustic

const raceDetector = false
