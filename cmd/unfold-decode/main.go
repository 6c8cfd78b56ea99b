// Command unfold-decode runs end-to-end speech recognition on a synthetic
// benchmark task: it synthesizes test utterances, scores them, decodes with
// on-the-fly WFST composition (software decoder or the UNFOLD hardware
// simulator) and reports transcripts plus the word error rate.
//
// Examples:
//
//	unfold-decode -task voxforge
//	unfold-decode -task tedlium -accel -n 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/acoustic"
	"repro/internal/decoder"
	"repro/internal/metrics"
	"repro/internal/task"

	unfold "repro"
)

func specFor(name string, scale float64) (task.Spec, error) {
	switch strings.ToLower(name) {
	case "tedlium":
		return unfold.KaldiTedlium(scale), nil
	case "librispeech":
		return unfold.KaldiLibrispeech(scale), nil
	case "voxforge":
		return unfold.KaldiVoxforge(scale), nil
	case "eesen":
		return unfold.EesenTedlium(scale), nil
	default:
		return task.Spec{}, fmt.Errorf("unknown task %q (tedlium, librispeech, voxforge, eesen)", name)
	}
}

func main() {
	taskName := flag.String("task", "voxforge", "task: tedlium, librispeech, voxforge, eesen")
	scale := flag.Float64("scale", 1.0, "task scale factor")
	n := flag.Int("n", 5, "utterances to decode")
	useAccel := flag.Bool("accel", false, "decode on the UNFOLD hardware simulator")
	nbest := flag.Int("nbest", 0, "print the top-N rescored hypotheses (two-pass decoder)")
	stream := flag.Bool("stream", false, "decode frame-at-a-time, printing partial hypotheses")
	parallel := flag.Int("parallel", 0, "decode on a worker pool with this many workers (0 = sequential)")
	timeout := flag.Duration("timeout", 0, "overall decode deadline (0 = none); on expiry partial results are reported")
	rescue := flag.Int("rescue", 0, "search-failure rescue: retry a dead frame up to this many times with a doubled beam")
	verbose := flag.Bool("v", false, "print per-utterance transcripts")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	spec, err := specFor(*taskName, *scale)
	if err != nil {
		fail(err)
	}
	spec.TestUtterances = *n

	fmt.Printf("building task %s (vocab %d, %d phones)...\n", spec.Name, spec.Vocab, spec.Phones)
	sys, err := unfold.NewSystem(spec)
	if err != nil {
		fail(err)
	}
	fp := sys.Footprint()
	fmt.Printf("datasets: AM %.2f KB, LM %.2f KB (compressed: %.2f KB + %.2f KB)\n",
		float64(fp.AMBytes)/1024, float64(fp.LMBytes)/1024,
		float64(fp.AMCompressedBytes)/1024, float64(fp.LMCompressedBytes)/1024)

	var wer metrics.WERAccumulator
	var frames int
	start := time.Now()

	switch {
	case *parallel > 0:
		p, err := sys.NewDecodePool(unfold.PoolConfig{
			Workers: *parallel,
			Decoder: decoder.Config{PreemptivePruning: true, RescueWidenings: *rescue},
		})
		if err != nil {
			fail(err)
		}
		var scores [][][]float32
		for _, u := range sys.TestSet() {
			scores = append(scores, sys.Scorer.ScoreUtterance(u.Frames))
			frames += len(u.Frames)
		}
		batch, err := p.DecodeContext(ctx, scores, nil, decoder.Options{})
		if batch == nil {
			fail(err)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "unfold-decode: batch ended early: %v\n", err)
		}
		for i, u := range sys.TestSet() {
			if e := batch.Errors[i]; e != nil {
				fmt.Fprintf(os.Stderr, "unfold-decode: %v\n", e)
			}
			if batch.Results[i] == nil {
				continue
			}
			report(*verbose, sys, i, u.Words, batch.Results[i].Words)
			wer.Add(u.Words, batch.Results[i].Words)
		}
		fmt.Printf("\npool (%d workers): %s\n", p.Workers(), batch.Throughput)
		if !batch.Search.Healthy() {
			fmt.Printf("%s\n", batch.Search)
		}
	case *nbest > 0:
		tp, err := decoder.NewTwoPass(sys.Task.AM.G, sys.Task.LMGraph.G, decoder.Config{}, 2**nbest)
		if err != nil {
			fail(err)
		}
		var refs [][]int32
		var lists [][][]int32
		for i, u := range sys.TestSet() {
			scores := sys.Scorer.ScoreUtterance(u.Frames)
			frames += len(u.Frames)
			list := tp.NBest(scores, *nbest)
			fmt.Printf("utt %02d ref: %s\n", i, strings.Join(sys.Words(u.Words), " "))
			var hyps [][]int32
			for rank, r := range list {
				fmt.Printf("   #%d (%.2f): %s\n", rank+1, r.Cost, strings.Join(sys.Words(r.Words), " "))
				hyps = append(hyps, r.Words)
			}
			wer.Add(u.Words, list[0].Words)
			refs = append(refs, u.Words)
			lists = append(lists, hyps)
		}
		fmt.Printf("\noracle WER over the %d-best lists: %.2f%%\n", *nbest, metrics.OracleWER(refs, lists))
	case *stream:
		dec, err := sys.NewDecoder(decoder.Config{PreemptivePruning: true})
		if err != nil {
			fail(err)
		}
		for i, u := range sys.TestSet() {
			scores := sys.Scorer.ScoreUtterance(u.Frames)
			frames += len(u.Frames)
			st := dec.NewStream()
			for f, frame := range scores {
				if err := st.Push(frame); err != nil {
					fail(err)
				}
				if *verbose && f%50 == 49 {
					fmt.Printf("utt %02d @%4.1fs partial: %s\n", i, float64(f)/100,
						strings.Join(sys.Words(st.Partial()), " "))
				}
			}
			res := st.Finish()
			report(*verbose, sys, i, u.Words, res.Words)
			wer.Add(u.Words, res.Words)
		}
	case *useAccel:
		acc, err := sys.NewAccelerator(decoder.Config{PreemptivePruning: true})
		if err != nil {
			fail(err)
		}
		var scores [][][]float32
		for _, u := range sys.TestSet() {
			scores = append(scores, sys.Scorer.ScoreUtterance(u.Frames))
			frames += len(u.Frames)
		}
		res, per := acc.DecodeAll(scores)
		for i, u := range sys.TestSet() {
			report(*verbose, sys, i, u.Words, per[i].Words)
			wer.Add(u.Words, per[i].Words)
		}
		fmt.Printf("\nsimulated accelerator: %d cycles, %.3f ms (%.0fx real time), %.1f mW, %.2f GB/s DRAM\n",
			res.Cycles, res.Seconds*1e3,
			metrics.AudioDuration(frames).Seconds()/res.Seconds,
			res.AvgPowerW*1e3, res.BandwidthGBs())
	default:
		dec, err := sys.NewDecoder(decoder.Config{PreemptivePruning: true, RescueWidenings: *rescue})
		if err != nil {
			fail(err)
		}
		var health metrics.Search
		feats := acoustic.NewUtterance(sys.Scorer) // scored as the search reads them
		defer feats.Close()
		for i, u := range sys.TestSet() {
			feats.Reset()
			feats.Load(u.Frames)
			res, err := dec.DecodeContext(ctx, feats, len(u.Frames))
			if err != nil {
				fmt.Fprintf(os.Stderr, "unfold-decode: utterance %d cut short: %v\n", i, err)
			}
			frames += res.Stats.Frames
			health.Add(metrics.Search{Rescues: res.Stats.Rescues, Failures: res.Stats.SearchFailures})
			report(*verbose, sys, i, u.Words, res.Words)
			wer.Add(u.Words, res.Words)
			if err != nil {
				break
			}
		}
		if !health.Healthy() {
			fmt.Printf("%s\n", health)
		}
	}

	wall := time.Since(start)
	audio := metrics.AudioDuration(frames)
	fmt.Printf("\n%s\n", wer.String())
	fmt.Printf("decoded %.1f s of audio in %v (software wall time, %.0fx real time)\n",
		audio.Seconds(), wall.Round(time.Millisecond), metrics.RTF(audio, wall))
}

func report(verbose bool, sys *unfold.System, i int, ref, hyp []int32) {
	if !verbose {
		return
	}
	fmt.Printf("utt %02d ref: %s\n", i, strings.Join(sys.Words(ref), " "))
	fmt.Printf("       hyp: %s\n", strings.Join(sys.Words(hyp), " "))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "unfold-decode:", err)
	os.Exit(1)
}
