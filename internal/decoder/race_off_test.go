//go:build !race

package decoder

const raceDetector = false
