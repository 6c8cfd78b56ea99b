// Benchmarks: one testing.B target per paper table/figure, mapping 1:1 to
// the experiment IDs in DESIGN.md §4. They exercise the same code paths as
// cmd/unfold-experiments on a small fixture so `go test -bench=.` finishes
// quickly; run the command with -scale for paper-style sweeps.
package unfold

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/compress"
	"repro/internal/decoder"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/task"
	"repro/internal/wfst"
)

type benchFixture struct {
	sys      *System
	composed *wfst.WFST
	scores   [][][]float32
}

var (
	benchOnce sync.Once
	benchFix  *benchFixture
)

func getBenchFixture(b *testing.B) *benchFixture {
	b.Helper()
	benchOnce.Do(func() {
		spec := task.Spec{
			Name:           "bench",
			Vocab:          40,
			Phones:         14,
			TrainSentences: 300,
			TestUtterances: 4,
			LMMinCount:     2,
			Seed:           2024,
		}
		sys, err := NewSystem(spec)
		if err != nil {
			panic(err)
		}
		composed, err := sys.Composed()
		if err != nil {
			panic(err)
		}
		f := &benchFixture{sys: sys, composed: composed}
		for _, u := range sys.TestSet() {
			f.scores = append(f.scores, sys.Task.Scorer.ScoreUtterance(u.Frames))
		}
		benchFix = f
	})
	return benchFix
}

func benchFrames(f *benchFixture) int64 {
	var n int64
	for _, sc := range f.scores {
		n += int64(len(sc))
	}
	return n
}

// BenchmarkFig1SoftwarePipeline measures the software decode+score split
// underlying Figure 1.
func BenchmarkFig1SoftwarePipeline(b *testing.B) {
	f := getBenchFixture(b)
	b.Run("viterbi", func(b *testing.B) {
		d, err := f.sys.NewDecoder(decoder.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Decode(f.scores[i%len(f.scores)])
		}
	})
	b.Run("acoustic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u := f.sys.TestSet()[i%len(f.scores)]
			f.sys.Task.Scorer.ScoreUtterance(u.Frames)
		}
	})
}

// BenchmarkTab1Compose measures the offline AM∘LM composition whose output
// size Table 1 reports.
func BenchmarkTab1Compose(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := wfst.Compose(f.sys.Task.AM.G, f.sys.Task.LMGraph.G, wfst.ComposeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if g.NumArcs() == 0 {
			b.Fatal("empty composition")
		}
	}
}

// BenchmarkTab2Compression measures the AM+LM compression pipeline of
// Table 2.
func BenchmarkTab2Compression(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		qa, err := compress.TrainQuantizer(compress.CollectWeights(f.sys.Task.AM.G), 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := compress.EncodeAM(f.sys.Task.AM.G, qa); err != nil {
			b.Fatal(err)
		}
		ql, err := compress.TrainQuantizer(compress.CollectWeights(f.sys.Task.LMGraph.G), 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := compress.EncodeLM(f.sys.Task.LMGraph, ql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Footprint measures the Price-style composed-WFST compression
// used by the Figure 8 / Table 2 baselines.
func BenchmarkFig8Footprint(b *testing.B) {
	f := getBenchFixture(b)
	if !f.composed.InSorted() {
		f.composed.SortByInput()
	}
	q, err := compress.TrainQuantizer(compress.CollectWeights(f.composed), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cc, err := compress.EncodeComposed(f.composed, q)
		if err != nil {
			b.Fatal(err)
		}
		if cc.SizeBytes() == 0 {
			b.Fatal("empty compression")
		}
	}
}

// benchUnfoldDecode runs the UNFOLD simulator over the fixture's test set.
func benchUnfoldDecode(b *testing.B, dcfg decoder.Config, cfg accel.Config) *accel.Result {
	f := getBenchFixture(b)
	var last *accel.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, err := accel.NewUnfold(cfg, dcfg, f.sys.AM, f.sys.LM, f.sys.Task.AM.NumSenones)
		if err != nil {
			b.Fatal(err)
		}
		last, _ = u.DecodeAll(f.scores)
	}
	b.SetBytes(benchFrames(f))
	return last
}

// BenchmarkFig6CacheSweep measures one point of the Figure 6 cache sweep
// (small vs default caches as sub-benches).
func BenchmarkFig6CacheSweep(b *testing.B) {
	small := accel.UnfoldConfig()
	small.StateCache.SizeBytes = 4 << 10
	small.AMArcCache.SizeBytes = 4 << 10
	small.LMArcCache.SizeBytes = 4 << 10
	small.TokenCache.SizeBytes = 4 << 10
	b.Run("4KB", func(b *testing.B) { benchUnfoldDecode(b, decoder.Config{}, small) })
	b.Run("default", func(b *testing.B) { benchUnfoldDecode(b, decoder.Config{}, accel.UnfoldConfig()) })
}

// BenchmarkFig7OffsetTable compares decode with and without the Offset
// Lookup Table (Figure 7).
func BenchmarkFig7OffsetTable(b *testing.B) {
	b.Run("with-table", func(b *testing.B) {
		benchUnfoldDecode(b, decoder.Config{Lookup: decoder.LookupMemo}, accel.UnfoldConfig())
	})
	b.Run("binary-only", func(b *testing.B) {
		benchUnfoldDecode(b, decoder.Config{Lookup: decoder.LookupBinary}, accel.UnfoldConfig())
	})
}

// BenchmarkFig9SearchEnergy runs the UNFOLD energy simulation of Figure 9.
func BenchmarkFig9SearchEnergy(b *testing.B) {
	r := benchUnfoldDecode(b, decoder.Config{PreemptivePruning: true}, accel.UnfoldConfig())
	b.ReportMetric(r.TotalEnergyJ*1e6, "uJ/testset")
}

// BenchmarkFig10PowerBreakdown exercises the per-component energy
// accounting of Figure 10.
func BenchmarkFig10PowerBreakdown(b *testing.B) {
	r := benchUnfoldDecode(b, decoder.Config{}, accel.UnfoldConfig())
	b.ReportMetric(r.AvgPowerW*1e3, "mW")
}

// BenchmarkFig11Bandwidth runs the baseline accelerator whose DRAM traffic
// Figure 11 contrasts with UNFOLD's.
func BenchmarkFig11Bandwidth(b *testing.B) {
	f := getBenchFixture(b)
	var last *accel.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fc, err := accel.NewFullyComposed(accel.BaselineConfig(), decoder.Config{}, f.composed, f.sys.Task.AM.NumSenones)
		if err != nil {
			b.Fatal(err)
		}
		last, _ = fc.DecodeAll(f.scores)
	}
	b.ReportMetric(last.BandwidthGBs(), "GB/s")
}

// BenchmarkTab5Latency measures simulated per-utterance latency (Table 5).
func BenchmarkTab5Latency(b *testing.B) {
	f := getBenchFixture(b)
	u, err := f.sys.NewAccelerator(decoder.Config{PreemptivePruning: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var mean float64
	for i := 0; i < b.N; i++ {
		_, per := u.DecodeAll(f.scores[:1])
		mean = per[0].Seconds * 1e3
	}
	b.ReportMetric(mean, "simulated-ms/utt")
}

// BenchmarkTab6WER measures the full recognition pipeline that produces
// Table 6's WER.
func BenchmarkTab6WER(b *testing.B) {
	f := getBenchFixture(b)
	b.ReportAllocs()
	var wer float64
	for i := 0; i < b.N; i++ {
		var acc metrics.WERAccumulator
		for j, u := range f.sys.TestSet() {
			hyp, err := f.sys.Recognize(u.Frames)
			if err != nil {
				b.Fatal(err)
			}
			acc.Add(f.sys.TestSet()[j].Words, hyp)
		}
		wer = acc.WER()
	}
	b.ReportMetric(wer, "WER%")
}

// BenchmarkFig12OverallTime measures the overall pipeline (scorer + search)
// of Figure 12.
func BenchmarkFig12OverallTime(b *testing.B) {
	f := getBenchFixture(b)
	d, err := f.sys.NewDecoder(decoder.Config{PreemptivePruning: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u := f.sys.TestSet()[i%len(f.scores)]
		d.Decode(f.sys.Task.Scorer.ScoreUtterance(u.Frames))
	}
	b.SetBytes(benchFrames(f) / int64(len(f.scores)))
}

// BenchmarkFig13OverallEnergy exercises the overall energy accounting of
// Figure 13 (accelerated search + modelled scorer).
func BenchmarkFig13OverallEnergy(b *testing.B) {
	r := benchUnfoldDecode(b, decoder.Config{PreemptivePruning: true}, accel.UnfoldConfig())
	b.ReportMetric(r.TotalEnergyJ*1e6, "searchuJ")
}

// BenchmarkAblationPreemptivePruning compares decode with and without the
// Section 3.3 pruning.
func BenchmarkAblationPreemptivePruning(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchUnfoldDecode(b, decoder.Config{}, accel.UnfoldConfig()) })
	b.Run("on", func(b *testing.B) {
		benchUnfoldDecode(b, decoder.Config{PreemptivePruning: true}, accel.UnfoldConfig())
	})
}

// BenchmarkParallelDecode sweeps DecodePool worker counts over a replicated
// batch of utterances — the serving-throughput scaling curve. Compare
// utt/s across sub-benches; on a multi-core host 4 workers should beat 1
// by well over 1.5x (this container may be limited to fewer cores — the
// b.ReportMetric utt/s column is the number to read).
func BenchmarkParallelDecode(b *testing.B) {
	f := getBenchFixture(b)
	// Replicate the fixture's scores into a batch large enough that the
	// fan-out dominates per-batch setup.
	var scores [][][]float32
	for len(scores) < 16 {
		scores = append(scores, f.scores...)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, err := pool.New(f.sys.Task.AM.G, f.sys.Task.LMGraph.G, pool.Config{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var last *pool.Batch
			for i := 0; i < b.N; i++ {
				last, err = p.Decode(scores)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Throughput.UtterancesPerSec(), "utt/s")
			b.ReportMetric(100*last.Throughput.CacheHitRate(), "cache-hit-%")
		})
	}
}

// BenchmarkStreamPush measures the incremental path: one stream lifecycle
// (NewStream, Push per frame, Finish) per iteration over the fixture's first
// utterance.
func BenchmarkStreamPush(b *testing.B) {
	f := getBenchFixture(b)
	d, err := f.sys.NewDecoder(decoder.Config{})
	if err != nil {
		b.Fatal(err)
	}
	scores := f.scores[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := d.NewStream()
		for _, frame := range scores {
			if err := s.Push(frame); err != nil {
				b.Fatal(err)
			}
		}
		s.Finish()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(scores))), "ns/frame")
}

// BenchmarkAblationLMArcSearch compares the three LM lookup strategies of
// Section 5.1 in the software decoder.
func BenchmarkAblationLMArcSearch(b *testing.B) {
	f := getBenchFixture(b)
	for _, kind := range []decoder.LookupKind{decoder.LookupLinear, decoder.LookupBinary, decoder.LookupMemo} {
		b.Run(kind.String(), func(b *testing.B) {
			d, err := f.sys.NewDecoder(decoder.Config{Lookup: kind})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.Decode(f.scores[i%len(f.scores)])
			}
		})
	}
}
