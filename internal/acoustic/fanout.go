package acoustic

import (
	"sync"
	"sync/atomic"
)

// The scoring fan-out: how one scoreWindows call over frame-independent
// frames (the GMM and the DNN) runs its scoreBlock-wide blocks on every
// idle core. This file holds the package's only goroutines.
//
// Helpers are process-wide: up to GOMAXPROCS-1 of them, started lazily and
// parked on one unbuffered channel. A caller offers its job with
// non-blocking sends, so a job reaches only helpers that are parked and
// idle; concurrent callers never have more than GOMAXPROCS-1 helpers among
// them, and under full load a caller scores every block itself. Helpers
// are never stopped: a parked one costs its stack and nothing else. The caller
// and the helpers that took the job claim blocks from one atomic cursor;
// each scores its block against a window state of its own, with the
// block's own boundaries and arithmetic, and writes only that block's rows.
// So the rows are bit-identical to the sequential loop's, whichever worker
// scored which block.
//
// A panic in any worker is recovered and kept (the first one wins). The
// caller waits for every helper that took its job before it returns or
// re-panics with that value, so no helper writes rows after the call ends,
// and a decoder's fault guard sees the panic on its own goroutine.

// blockJob is one fanned-out scoreWindows call. Jobs are pooled, so a
// dispatch allocates nothing once warm.
type blockJob struct {
	sc          windowScorer
	frames, out [][]float32
	next        atomic.Int64 // the next block to claim
	helpers     sync.WaitGroup
	failed      atomic.Bool
	mu          sync.Mutex
	fault       any // the first panic a worker recovered, under mu
}

var (
	offers  = make(chan *blockJob) // unbuffered: a send lands only on a parked helper
	started atomic.Int32           // helpers started so far
	jobs    = sync.Pool{New: func() any { return new(blockJob) }}
)

// fanOut scores frames into out block by block, as scoreWindows does,
// sharing the blocks with up to spare idle helpers. st is the caller's
// window state; sc's frames must be independent of each other.
func fanOut(sc windowScorer, st windowState, frames, out [][]float32, spare int) {
	startHelpers(spare)
	j := jobs.Get().(*blockJob)
	j.sc, j.frames, j.out = sc, frames, out
	blocks := (len(frames) + scoreBlock - 1) / scoreBlock
offer:
	for k := min(spare, blocks-1); k > 0; k-- {
		j.helpers.Add(1)
		select {
		case offers <- j:
		default: // no helper is parked
			j.helpers.Done()
			break offer
		}
	}
	j.work(st)
	j.helpers.Wait()
	fault := j.fault
	*j = blockJob{}
	jobs.Put(j)
	if fault != nil {
		panic(fault)
	}
}

// startHelpers starts helpers until n are running.
func startHelpers(n int) {
	for h := started.Load(); int(h) < n; h = started.Load() {
		if started.CompareAndSwap(h, h+1) {
			go help()
		}
	}
}

// help is a helper's life: take an offered job, score its blocks against a
// window state from the job scorer's pool, report done, park again. A state
// whose block panicked is dropped rather than pooled.
func help() {
	for j := range offers {
		st := borrowWindow(j.sc)
		if j.work(st) {
			j.sc.windowPool().Put(st)
		}
		j.helpers.Done()
	}
}

// work claims and scores blocks against st until none is left or a worker
// has failed. It reports false when a block panicked; the panic is kept in
// the job for the caller.
func (j *blockJob) work(st windowState) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			j.mu.Lock()
			if j.fault == nil {
				j.fault = p
			}
			j.mu.Unlock()
			j.failed.Store(true)
			ok = false
		}
	}()
	for !j.failed.Load() {
		base := int(j.next.Add(1)-1) * scoreBlock
		if base >= len(j.frames) {
			break
		}
		end := min(base+scoreBlock, len(j.frames))
		j.sc.scoreWindow(st, j.frames[base:end], j.out[base:end])
	}
	return true
}
