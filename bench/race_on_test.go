//go:build race

package main

// raceDetector: the smoke run is several times slower under -race, so its
// time budget is not held there.
const raceDetector = true
