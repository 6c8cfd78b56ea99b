package acoustic

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The scoring fan-out: how an utterance's scoreBlock-wide blocks are scored
// by one job — a scoreWindows call run to its end, or a chunk a DNN's
// Utterance.Row reads while it is being scored — with every idle core
// helping when the frames are independent (the GMM and the DNN). This file
// holds the package's only goroutines.
//
// Helpers are process-wide: up to GOMAXPROCS-1 of them, started lazily and
// parked on one unbuffered channel. A job is offered with non-blocking
// sends when it starts, so it reaches only helpers that are parked and
// idle; concurrent jobs never have more than GOMAXPROCS-1 helpers among
// them, and under full load the reader scores every block itself. Helpers
// are never stopped: a parked one costs its stack and nothing else. The
// reader and the helpers that took the job claim blocks from one atomic
// cursor, in order; each scores its block against a window state of its
// own, with the block's own boundaries and arithmetic, writes only that
// block's rows, and then flags the block ready. So the rows are
// bit-identical to the sequential loop's, whichever worker scored which
// block, and a sequential scorer's job (no helpers) scores its blocks in
// order against the reader's state.
//
// A job's life is start → rows → finish. The reader waits for a block with
// await, which scores the next unclaimed block itself while the block it
// needs is not ready, and yields while a helper holds that block. finish
// scores whatever is left and waits for the helpers; abandon stops the
// claims and waits for the helpers without scoring the rest. Either way no
// helper writes rows once the job is back in the pool.
//
// A panic in any worker is recovered and kept (the first one wins), and the
// block it was scoring is flagged faulted instead of ready; the other
// blocks are still scored. The reader re-panics with the kept value on its
// own goroutine, after every helper has left the job: at the await of a
// faulted block, or at finish. So a decoder's fault guard sees a scoring
// panic as one of its own call.

// The states of a job's block.
const (
	blockPending = iota
	blockReady
	blockFaulted
)

// blockJob is one utterance's scoring. A job is reused with its block
// flags — ScoreUtterance's from a pool, an Utterance's for the Utterance's
// life — so scoring allocates nothing once warm.
type blockJob struct {
	sc          windowScorer
	frames, out [][]float32
	state       []atomic.Uint32 // per block: blockPending, blockReady or blockFaulted
	next        atomic.Int64    // the next block to claim
	stop        atomic.Bool     // abandoned: claim no more blocks
	helpers     sync.WaitGroup
	mu          sync.Mutex
	fault       any // the first panic a worker recovered, under mu
}

var (
	offers  = make(chan *blockJob) // unbuffered: a send lands only on a parked helper
	started atomic.Int32           // helpers started so far
	jobs    = sync.Pool{New: func() any { return new(blockJob) }}
)

// start sets the idle job j scoring frames into out block by block, as
// scoreWindows does, and offers it to idle helpers when sc's frames are
// independent, GOMAXPROCS is above 1 and there are two blocks or more.
// Nothing is scored on the reader's goroutine until it calls await or
// finish.
func (j *blockJob) start(sc windowScorer, frames, out [][]float32) {
	blocks := (len(frames) + scoreBlock - 1) / scoreBlock
	if cap(j.state) < blocks {
		j.state = make([]atomic.Uint32, blocks)
	}
	j.state = j.state[:blocks]
	clear(j.state)
	j.sc, j.frames, j.out = sc, frames, out
	spare := 0
	if sc.framesIndependent() {
		spare = min(runtime.GOMAXPROCS(0)-1, blocks-1)
	}
	startHelpers(spare)
	for ; spare > 0; spare-- {
		j.helpers.Add(1)
		select {
		case offers <- j:
		default: // no helper is parked
			j.helpers.Done()
			return
		}
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
// window state from the job scorer's pool until none is left to claim,
// report done, park again. A state whose block panicked is dropped rather
// than pooled, and a fresh one scores the helper's next block.
func help() {
	for j := range offers {
		st := borrowWindow(j.sc)
		for {
			s := j.claim(st)
			if s == blockPending {
				break
			}
			if s == blockFaulted {
				st = borrowWindow(j.sc)
			}
		}
		j.sc.windowPool().Put(st)
		j.helpers.Done()
	}
}

// claim scores the next unclaimed block against st and returns what the
// block became, blockReady or blockFaulted; blockPending means there was
// none to claim (every block is claimed, or the job was abandoned).
func (j *blockJob) claim(st windowState) (state uint32) {
	if j.stop.Load() {
		return blockPending
	}
	b := int(j.next.Add(1) - 1)
	if b >= len(j.state) {
		return blockPending
	}
	defer func() {
		if p := recover(); p != nil {
			j.mu.Lock()
			if j.fault == nil {
				j.fault = p
			}
			j.mu.Unlock()
			j.state[b].Store(blockFaulted)
			state = blockFaulted
		}
	}()
	base := b * scoreBlock
	end := min(base+scoreBlock, len(j.frames))
	j.sc.scoreWindow(st, j.frames[base:end], j.out[base:end])
	j.state[b].Store(blockReady)
	return blockReady
}

// await returns true once block b's rows are written, scoring the next
// unclaimed block against st while b is not ready and yielding while a
// helper holds it. It returns false if b faulted; the reader then ends the
// job and re-panics with its fault.
func (j *blockJob) await(st windowState, b int) bool {
	for {
		switch j.state[b].Load() {
		case blockReady:
			return true
		case blockFaulted:
			return false
		}
		if j.claim(st) == blockPending {
			runtime.Gosched()
		}
	}
}

// finish scores every block left against st, waits for the helpers and
// leaves the job idle, re-panicking with the job's fault if a block
// faulted.
func (j *blockJob) finish(st windowState) {
	for j.claim(st) != blockPending {
	}
	if fault := j.end(); fault != nil {
		panic(fault)
	}
}

// abandon ends the job without scoring what is left: no block is claimed
// after it, and it returns once every helper has left. A fault nobody read
// is dropped.
func (j *blockJob) abandon() {
	j.stop.Store(true)
	j.end()
}

// end waits for the helpers and leaves the job idle, keeping its block
// flags for the next start, and returns the first fault.
func (j *blockJob) end() any {
	j.helpers.Wait()
	fault, state := j.fault, j.state
	*j = blockJob{state: state}
	return fault
}
