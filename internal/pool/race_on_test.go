//go:build race

package pool

// raceDetector: sync.Pool drops items at random under -race, so the
// allocation gate is not held there.
const raceDetector = true
