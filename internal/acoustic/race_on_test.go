//go:build race

package acoustic

// raceDetector: instrumented loads and stores slow the two kernels
// unevenly, so the timing ratio gate is not held under -race.
const raceDetector = true
