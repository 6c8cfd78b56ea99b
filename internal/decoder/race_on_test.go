//go:build race

package decoder

// raceDetector: instrumented loads and stores slow the tokenStore and the
// map oracle by different factors, so the same-run timing ratio is not held
// under -race.
const raceDetector = true
