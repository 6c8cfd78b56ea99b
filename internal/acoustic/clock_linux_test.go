package acoustic

import (
	"syscall"
	"time"
	"unsafe"
)

// timingClock names the clock timePair reads, for the test log.
const timingClock = "thread CPU (CLOCK_THREAD_CPUTIME_ID)"

// clockNow reads the calling thread's CPU clock. timePair locks its
// goroutine to the thread, so the reading counts only the time the kernels
// ran: other processes and the package's other tests on the same cores stop
// showing up as slower kernels. The raw call keeps the module free of
// dependencies.
func clockNow() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// Cannot fail: the clock id is fixed and ts is a valid pointer.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
