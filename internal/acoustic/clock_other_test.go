//go:build !linux

package acoustic

import "time"

// timingClock names the clock timePair reads, for the test log.
const timingClock = "wall"

var clockEpoch = time.Now()

// clockNow reads the wall clock: off linux the test has no thread clock.
func clockNow() time.Duration { return time.Since(clockEpoch) }
