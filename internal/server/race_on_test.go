//go:build race

package server

// raceDetector: sync.Pool drops items at random under -race, so the
// allocation gate is not held there.
const raceDetector = true
