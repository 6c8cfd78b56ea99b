package decoder

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// panicFeed serves rows and panics when the search asks for row bad.
type panicFeed struct {
	rows [][]float32
	bad  int
}

func (p *panicFeed) Row(i int, _ func() []int32) []float32 {
	if i == p.bad {
		panic("feeder fault")
	}
	return p.rows[i]
}

// checkFault asserts err is the session's typed fault, carrying the
// recovered value in the "recovered panic: <value>" text.
func checkFault(t *testing.T, what string, err error, value string) {
	t.Helper()
	var fe *faultError
	if !errors.As(err, &fe) || err.Error() != "recovered panic: "+value {
		t.Fatalf("%s: error %v, want the session fault %q", what, err, "recovered panic: "+value)
	}
}

// TestDecodeFaultGuard: a panic inside the search — here the feeder's, on
// frame 3 — comes back from DecodeContext as the session's typed fault with
// a Result that has no words, never as an escaped panic, and the decoder
// decodes the next utterance exactly as a fresh one does.
func TestDecodeFaultGuard(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	scores := f.scores[0]
	res, err := d.DecodeContext(context.Background(), &panicFeed{rows: scores, bad: 3}, len(scores))
	checkFault(t, "DecodeContext", err, "feeder fault")
	if res == nil || len(res.Words) != 0 || res.ReachedFinal || res.Stats.Frames != 4 {
		t.Fatalf("faulted decode returned %+v, want a Result with no words over 4 frames, the interrupted one counted", res)
	}
	fresh, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	got, want := d.Decode(scores), fresh.Decode(scores)
	if len(want.Words) == 0 || fmt.Sprint(got.Words, got.WordEnds, got.Cost) != fmt.Sprint(want.Words, want.WordEnds, want.Cost) {
		t.Errorf("decoder after a fault %v at %v cost %v, fresh %v at %v cost %v",
			got.Words, got.WordEnds, got.Cost, want.Words, want.WordEnds, want.Cost)
	}
}

// TestStreamFaultGuard: a fault in Feed ends the stream. Feed returns the
// fault, and so do every later Feed and Push; Partial has nothing, Finish
// returns a Result with no words, and the interrupted scratch set is not
// handed back to the pool. A fault while NewStream arms the session (the
// frame hook panicking on the start frontier) is kept and returned by the
// first Feed or Push.
func TestStreamFaultGuard(t *testing.T) {
	f := getFixture(t, 42)
	d, err := NewOnTheFly(f.tk.AM.G, f.tk.LMGraph.G, Config{PreemptivePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	scores := f.scores[0]

	s := d.NewStream()
	if err := s.Feed(&panicFeed{rows: scores[:5], bad: -1}, 5); err != nil {
		t.Fatalf("healthy chunk: %v", err)
	}
	err = s.Feed(&panicFeed{rows: scores[5:10], bad: 2}, 5)
	checkFault(t, "Feed", err, "feeder fault")
	if again := s.Feed(&panicFeed{rows: scores[10:], bad: -1}, len(scores)-10); again != err {
		t.Errorf("Feed after the fault: %v, want the same fault %v", again, err)
	}
	if again := s.Push(scores[10]); again != err {
		t.Errorf("Push after the fault: %v, want the same fault %v", again, err)
	}
	if p := s.Partial(); p != nil {
		t.Errorf("Partial after the fault: %v, want nil", p)
	}
	res := s.Finish()
	if res == nil || len(res.Words) != 0 || res.ReachedFinal || res.Stats.Frames != 8 {
		t.Errorf("Finish after the fault: %+v, want a Result with no words over 8 frames, the interrupted one counted", res)
	}
	s.Close()
	if s.sc == nil {
		t.Error("Close handed the interrupted scratch set back to the pool")
	}

	// The decoder streams on as a fresh one after the fault.
	healthy := d.NewStream()
	for _, row := range scores {
		if err := healthy.Push(row); err != nil {
			t.Fatal(err)
		}
	}
	got, want := healthy.Finish(), d.Decode(scores)
	healthy.Close()
	if fmt.Sprint(got.Words, got.Cost) != fmt.Sprint(want.Words, want.Cost) {
		t.Errorf("stream after a fault: %v cost %v, Decode %v cost %v", got.Words, got.Cost, want.Words, want.Cost)
	}

	d.frameHook = func(frame int, _ []uint64, _ []token) {
		if frame == -1 {
			panic("open fault")
		}
	}
	opened := d.NewStream()
	d.frameHook = nil
	checkFault(t, "Push after a faulted NewStream", opened.Push(scores[0]), "open fault")
	checkFault(t, "Feed after a faulted NewStream", opened.Feed(&panicFeed{rows: scores, bad: -1}, 1), "open fault")
	if res := opened.Finish(); res == nil || len(res.Words) != 0 {
		t.Errorf("Finish after a faulted NewStream: %+v", res)
	}
	opened.Close()
	if err := opened.Push(nil); err == nil || strings.Contains(err.Error(), "recovered panic") {
		t.Errorf("an empty frame is rejected before the fault is consulted: %v", err)
	}
}
