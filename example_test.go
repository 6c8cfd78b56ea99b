package unfold_test

import (
	"fmt"

	unfold "repro"
	"repro/internal/decoder"
	"repro/internal/task"
)

// The basic flow: build a system, recognize its own test utterances.
func ExampleNewSystem() {
	sys, err := unfold.NewSystem(task.Spec{
		Name:           "example",
		Vocab:          25,
		Phones:         10,
		TrainSentences: 150,
		TestUtterances: 1,
		Seed:           9,
	})
	if err != nil {
		panic(err)
	}
	u := sys.TestSet()[0]
	hyp, err := sys.Recognize(u.Frames)
	if err != nil {
		panic(err)
	}
	fmt.Println("recognized", len(hyp), "words; reference has", len(u.Words))
	// Output: recognized 6 words; reference has 6
}

// Dataset footprints: the memory story the paper is about.
func ExampleSystem_Footprint() {
	sys, err := unfold.NewSystem(task.Spec{
		Name:           "example-fp",
		Vocab:          25,
		Phones:         10,
		TrainSentences: 150,
		TestUtterances: 1,
		Seed:           9,
	})
	if err != nil {
		panic(err)
	}
	fp := sys.Footprint()
	fmt.Println("compressed smaller than uncompressed:",
		fp.CompressedBytes() < fp.OnTheFlyBytes())
	// Output: compressed smaller than uncompressed: true
}

// Parallel batch decoding: a DecodePool fans utterances out to workers
// each with its own offset table; transcripts are byte-identical to
// sequential decoding regardless of the worker count.
func ExampleDecodePool() {
	sys, err := unfold.NewSystem(task.Spec{
		Name:           "example-pool",
		Vocab:          25,
		Phones:         10,
		TrainSentences: 150,
		TestUtterances: 4,
		Seed:           9,
	})
	if err != nil {
		panic(err)
	}
	// Score the batch, then decode it on 4 workers.
	var scores [][][]float32
	for _, u := range sys.TestSet() {
		scores = append(scores, sys.Task.Scorer.ScoreUtterance(u.Frames))
	}
	p, err := sys.NewDecodePool(unfold.PoolConfig{Workers: 4})
	if err != nil {
		panic(err)
	}
	batch, err := p.Decode(scores)
	if err != nil {
		panic(err)
	}
	// The pool's transcripts match sequential decoding exactly.
	dec, err := sys.NewDecoder(unfold.DecoderConfig{})
	if err != nil {
		panic(err)
	}
	same := true
	for i, r := range batch.Results {
		seq := dec.Decode(scores[i])
		if fmt.Sprint(seq.Words) != fmt.Sprint(r.Words) {
			same = false
		}
	}
	fmt.Println("decoded", len(batch.Results), "utterances on", p.Workers(), "workers")
	fmt.Println("matches sequential:", same)
	fmt.Println("offset table was used:", batch.Throughput.CacheLookups > 0)
	// Output:
	// decoded 4 utterances on 4 workers
	// matches sequential: true
	// offset table was used: true
}

// Custom decoder configuration: tighter beam, preemptive pruning.
func ExampleSystem_NewDecoder() {
	sys, err := unfold.NewSystem(task.Spec{
		Name:           "example-dec",
		Vocab:          25,
		Phones:         10,
		TrainSentences: 150,
		TestUtterances: 1,
		Seed:           9,
	})
	if err != nil {
		panic(err)
	}
	dec, err := sys.NewDecoder(decoder.Config{Beam: 12, PreemptivePruning: true})
	if err != nil {
		panic(err)
	}
	scores := sys.Task.Scorer.ScoreUtterance(sys.TestSet()[0].Frames)
	res := dec.Decode(scores)
	fmt.Println("reached a final state:", res.ReachedFinal)
	// Output: reached a final state: true
}
