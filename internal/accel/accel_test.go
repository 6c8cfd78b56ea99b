package accel

import (
	"reflect"
	"testing"

	"repro/internal/compress"
	"repro/internal/decoder"
	"repro/internal/metrics"
	"repro/internal/semiring"
	"repro/internal/task"
	"repro/internal/wfst"
)

type fixture struct {
	tk       *task.Task
	composed *wfst.WFST
	cam      *compress.AM
	clm      *compress.LM
	scores   [][][]float32
}

var cached *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	tk, err := task.Build(task.Spec{
		Name:           "accel-test",
		Vocab:          30,
		Phones:         12,
		TrainSentences: 250,
		TestUtterances: 5,
		LMMinCount:     2,
		Seed:           77,
	})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := wfst.Compose(tk.AM.G, tk.LMGraph.G, wfst.ComposeOptions{MaxStates: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	qa, err := compress.TrainQuantizer(compress.CollectWeights(tk.AM.G), 0)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := compress.EncodeAM(tk.AM.G, qa)
	if err != nil {
		t.Fatal(err)
	}
	ql, err := compress.TrainQuantizer(compress.CollectWeights(tk.LMGraph.G), 0)
	if err != nil {
		t.Fatal(err)
	}
	clm, err := compress.EncodeLM(tk.LMGraph, ql)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{tk: tk, composed: composed, cam: cam, clm: clm}
	for _, u := range tk.Test {
		f.scores = append(f.scores, tk.Scorer.ScoreUtterance(u.Frames))
	}
	cached = f
	return f
}

// The UNFOLD simulator is also a functional emulator (Section 4): its
// hypotheses must match the software on-the-fly decoder run over the
// decompressed (weight-quantized) graphs.
func TestUnfoldMatchesSoftwareDecoder(t *testing.T) {
	f := getFixture(t)
	u, err := NewUnfold(UnfoldConfig(), decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	if err != nil {
		t.Fatal(err)
	}
	amQ := f.cam.Decompress()
	lmQ := f.clm.Decompress()
	sw, err := decoder.NewOnTheFly(amQ, lmQ, decoder.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, per := u.DecodeAll(f.scores)
	for i, sc := range f.scores {
		ref := sw.Decode(sc)
		if len(ref.Words) != len(per[i].Words) {
			t.Fatalf("utt %d: accel %v vs software %v", i, per[i].Words, ref.Words)
		}
		for j := range ref.Words {
			if ref.Words[j] != per[i].Words[j] {
				t.Fatalf("utt %d word %d differs", i, j)
			}
		}
		if !semiring.ApproxEqual(ref.Cost, per[i].Cost, 0.05) {
			t.Errorf("utt %d: cost %v vs %v", i, per[i].Cost, ref.Cost)
		}
	}
}

// The baseline simulator must match the software composed decoder exactly
// (same graph, unquantized).
func TestBaselineMatchesSoftwareDecoder(t *testing.T) {
	f := getFixture(t)
	b, err := NewFullyComposed(BaselineConfig(), decoder.Config{}, f.composed, f.tk.AM.NumSenones)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := decoder.NewComposed(f.composed, decoder.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, per := b.DecodeAll(f.scores)
	for i, sc := range f.scores {
		ref := sw.Decode(sc)
		if len(ref.Words) != len(per[i].Words) {
			t.Fatalf("utt %d: accel %v vs software %v", i, per[i].Words, ref.Words)
		}
		for j := range ref.Words {
			if ref.Words[j] != per[i].Words[j] {
				t.Fatalf("utt %d word %d differs", i, j)
			}
		}
		if !semiring.ApproxEqual(ref.Cost, per[i].Cost, 1e-3) {
			t.Errorf("utt %d: cost %v vs %v", i, per[i].Cost, ref.Cost)
		}
	}
}

// Quantization must not change hypotheses materially (paper: < 0.01% WER).
func TestQuantizationWERImpactSmall(t *testing.T) {
	f := getFixture(t)
	u, _ := NewUnfold(UnfoldConfig(), decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	b, _ := NewFullyComposed(BaselineConfig(), decoder.Config{}, f.composed, f.tk.AM.NumSenones)
	_, perU := u.DecodeAll(f.scores)
	_, perB := b.DecodeAll(f.scores)
	var wu, wb metrics.WERAccumulator
	for i := range f.scores {
		wu.Add(f.tk.Test[i].Words, perU[i].Words)
		wb.Add(f.tk.Test[i].Words, perB[i].Words)
	}
	if diff := wu.WER() - wb.WER(); diff > 3 || diff < -3 {
		t.Errorf("quantized WER %.2f%% vs exact %.2f%% — gap too large", wu.WER(), wb.WER())
	}
}

// The paper's central memory claim: UNFOLD moves far fewer DRAM bytes than
// the fully-composed baseline, and spends less total energy.
func TestUnfoldReducesMemoryTrafficAndEnergy(t *testing.T) {
	f := getFixture(t)
	u, _ := NewUnfold(UnfoldConfig(), decoder.Config{PreemptivePruning: true}, f.cam, f.clm, f.tk.AM.NumSenones)
	b, _ := NewFullyComposed(BaselineConfig(), decoder.Config{}, f.composed, f.tk.AM.NumSenones)
	ru, _ := u.DecodeAll(f.scores)
	rb, _ := b.DecodeAll(f.scores)

	tu := ru.DRAMReadBytes + ru.DRAMWriteBytes
	tb := rb.DRAMReadBytes + rb.DRAMWriteBytes
	if tu >= tb {
		t.Errorf("UNFOLD DRAM bytes %d >= baseline %d", tu, tb)
	}
	if ru.TotalEnergyJ >= rb.TotalEnergyJ {
		t.Errorf("UNFOLD energy %.3e J >= baseline %.3e J", ru.TotalEnergyJ, rb.TotalEnergyJ)
	}
	t.Logf("DRAM bytes: UNFOLD %d vs baseline %d (%.1fx); energy %.3e vs %.3e J",
		tu, tb, float64(tb)/float64(tu), ru.TotalEnergyJ, rb.TotalEnergyJ)
}

func TestRealTimeMargin(t *testing.T) {
	f := getFixture(t)
	u, _ := NewUnfold(UnfoldConfig(), decoder.Config{PreemptivePruning: true}, f.cam, f.clm, f.tk.AM.NumSenones)
	ru, per := u.DecodeAll(f.scores)
	audio := metrics.AudioDuration(ru.Frames).Seconds()
	if ru.Seconds >= audio {
		t.Errorf("not real time: %.4fs processing for %.2fs audio", ru.Seconds, audio)
	}
	t.Logf("UNFOLD: %.0fx real time, %.2f mW avg power, %.1f mm^2",
		audio/ru.Seconds, ru.AvgPowerW*1e3, ru.AreaMM2)
	for i, p := range per {
		if p.Cycles == 0 || p.Frames == 0 {
			t.Errorf("utterance %d has empty timing", i)
		}
	}
}

func TestOffsetTableEffective(t *testing.T) {
	f := getFixture(t)
	memo, _ := NewUnfold(UnfoldConfig(), decoder.Config{Lookup: decoder.LookupMemo}, f.cam, f.clm, f.tk.AM.NumSenones)
	bin, _ := NewUnfold(UnfoldConfig(), decoder.Config{Lookup: decoder.LookupBinary}, f.cam, f.clm, f.tk.AM.NumSenones)
	lin, _ := NewUnfold(UnfoldConfig(), decoder.Config{Lookup: decoder.LookupLinear}, f.cam, f.clm, f.tk.AM.NumSenones)
	rm, _ := memo.DecodeAll(f.scores)
	rb, _ := bin.DecodeAll(f.scores)
	rl, _ := lin.DecodeAll(f.scores)
	if rm.OffsetHits == 0 {
		t.Error("offset table never hit")
	}
	if rm.Dec.LMProbes >= rb.Dec.LMProbes {
		t.Errorf("memo probes %d >= binary probes %d", rm.Dec.LMProbes, rb.Dec.LMProbes)
	}
	if rb.Dec.LMProbes >= rl.Dec.LMProbes {
		t.Errorf("binary probes %d >= linear probes %d", rb.Dec.LMProbes, rl.Dec.LMProbes)
	}
	// The paper's ordering: linear slowest, then binary, then offset table.
	if !(rm.Cycles <= rb.Cycles && rb.Cycles <= rl.Cycles) {
		t.Errorf("cycle ordering violated: memo %d, binary %d, linear %d",
			rm.Cycles, rb.Cycles, rl.Cycles)
	}
}

func TestPreemptivePruningSpeedsUpAccel(t *testing.T) {
	f := getFixture(t)
	on, _ := NewUnfold(UnfoldConfig(), decoder.Config{PreemptivePruning: true}, f.cam, f.clm, f.tk.AM.NumSenones)
	off, _ := NewUnfold(UnfoldConfig(), decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	ron, _ := on.DecodeAll(f.scores)
	roff, _ := off.DecodeAll(f.scores)
	if ron.Dec.PreemptivePruned == 0 {
		t.Error("preemptive pruning never fired")
	}
	if ron.Dec.LMProbes > roff.Dec.LMProbes {
		t.Errorf("pruning increased probes: %d > %d", ron.Dec.LMProbes, roff.Dec.LMProbes)
	}
}

func TestCacheMissRatiosSane(t *testing.T) {
	f := getFixture(t)
	u, _ := NewUnfold(UnfoldConfig(), decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	r, _ := u.DecodeAll(f.scores)
	for name, cs := range r.Caches {
		if name == "LMArc" && cs.Accesses == 0 {
			t.Errorf("LM arc cache untouched")
		}
		mr := cs.MissRatio()
		if mr < 0 || mr > 1 {
			t.Errorf("%s: miss ratio %v", name, mr)
		}
	}
	if r.Caches["State"].Accesses == 0 || r.Caches["AMArc"].Accesses == 0 || r.Caches["Token"].Accesses == 0 {
		t.Error("cache access counters missing")
	}
}

func TestSmallerCachesMissMore(t *testing.T) {
	f := getFixture(t)
	big := UnfoldConfig()
	small := UnfoldConfig()
	small.AMArcCache.SizeBytes = 1 << 10
	ub, _ := NewUnfold(big, decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	us, _ := NewUnfold(small, decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	rbig, _ := ub.DecodeAll(f.scores)
	rsmall, _ := us.DecodeAll(f.scores)
	if rsmall.Caches["AMArc"].MissRatio() < rbig.Caches["AMArc"].MissRatio() {
		t.Errorf("1KB cache misses less (%.4f) than 512KB (%.4f)",
			rsmall.Caches["AMArc"].MissRatio(), rbig.Caches["AMArc"].MissRatio())
	}
}

func TestEnergyBreakdownAndArea(t *testing.T) {
	f := getFixture(t)
	u, _ := NewUnfold(UnfoldConfig(), decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	b, _ := NewFullyComposed(BaselineConfig(), decoder.Config{}, f.composed, f.tk.AM.NumSenones)
	ru, _ := u.DecodeAll(f.scores)
	rb, _ := b.DecodeAll(f.scores)
	for _, key := range []string{"StateCache", "ArcCache", "TokenCache", "Hashes", "Pipeline", "MainMemory"} {
		if ru.EnergyJ[key] <= 0 {
			t.Errorf("UNFOLD energy component %s = %v", key, ru.EnergyJ[key])
		}
		if rb.EnergyJ[key] <= 0 {
			t.Errorf("baseline energy component %s = %v", key, rb.EnergyJ[key])
		}
	}
	if ru.EnergyJ["OffsetTable"] <= 0 {
		t.Error("UNFOLD missing offset-table energy")
	}
	if _, ok := rb.EnergyJ["OffsetTable"]; ok {
		t.Error("baseline should have no offset table")
	}
	// The paper: UNFOLD's area is ~16% smaller than the baseline's.
	if ru.AreaMM2 >= rb.AreaMM2 {
		t.Errorf("UNFOLD area %.1f >= baseline %.1f", ru.AreaMM2, rb.AreaMM2)
	}
	t.Logf("area: UNFOLD %.1f mm^2 vs baseline %.1f mm^2", ru.AreaMM2, rb.AreaMM2)
}

// Both simulators must repeat bit for bit: every frontier walk is in key
// order and the energy total is summed in name order, so the whole Result
// and every UttResult match across runs.
func TestAccelDeterministic(t *testing.T) {
	f := getFixture(t)
	designs := []struct {
		name string
		run  func() (*Result, []UttResult)
	}{
		{"UNFOLD", func() (*Result, []UttResult) {
			u, _ := NewUnfold(UnfoldConfig(), decoder.Config{PreemptivePruning: true}, f.cam, f.clm, f.tk.AM.NumSenones)
			return u.DecodeAll(f.scores)
		}},
		{"baseline", func() (*Result, []UttResult) {
			b, _ := NewFullyComposed(BaselineConfig(), decoder.Config{}, f.composed, f.tk.AM.NumSenones)
			return b.DecodeAll(f.scores)
		}},
	}
	for _, d := range designs {
		r0, per0 := d.run()
		for run := 1; run <= 5; run++ {
			r, per := d.run()
			if !reflect.DeepEqual(r, r0) {
				t.Fatalf("%s run %d: Result differs from run 0:\n%+v\nvs\n%+v", d.name, run, r, r0)
			}
			if !reflect.DeepEqual(per, per0) {
				t.Fatalf("%s run %d: per-utterance results differ from run 0", d.name, run)
			}
		}
	}
}

func TestNewErrors(t *testing.T) {
	f := getFixture(t)
	if _, err := NewUnfold(UnfoldConfig(), decoder.Config{}, nil, f.clm, 10); err == nil {
		t.Error("expected error for nil AM")
	}
	if _, err := NewUnfold(BaselineConfig(), decoder.Config{}, f.cam, f.clm, 10); err == nil {
		t.Error("expected error for config without LM cache")
	}
	if _, err := NewFullyComposed(BaselineConfig(), decoder.Config{}, nil, 10); err == nil {
		t.Error("expected error for nil graph")
	}
}

func TestBandwidthSplit(t *testing.T) {
	f := getFixture(t)
	u, _ := NewUnfold(UnfoldConfig(), decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	r, _ := u.DecodeAll(f.scores)
	var sum uint64
	for _, b := range r.DRAMByStream {
		sum += b
	}
	if sum != r.DRAMReadBytes+r.DRAMWriteBytes {
		t.Errorf("stream split %d != total %d", sum, r.DRAMReadBytes+r.DRAMWriteBytes)
	}
	if r.DRAMByStream[StreamAcoustic] == 0 {
		t.Error("no acoustic-score DMA traffic")
	}
	if r.BandwidthGBs() <= 0 {
		t.Error("no bandwidth")
	}
}

func TestHashOverflowSpillsToDRAM(t *testing.T) {
	f := getFixture(t)
	cfg := UnfoldConfig()
	cfg.HashEntries = 4 // absurdly small: force overflow every frame
	u, _ := NewUnfold(cfg, decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	r, _ := u.DecodeAll(f.scores)
	if r.OverflowTokens == 0 {
		t.Fatal("tiny hash table never overflowed")
	}
	big, _ := NewUnfold(UnfoldConfig(), decoder.Config{}, f.cam, f.clm, f.tk.AM.NumSenones)
	rb, _ := big.DecodeAll(f.scores)
	if rb.OverflowTokens != 0 {
		t.Errorf("32K-entry hash table overflowed %d times on a tiny task", rb.OverflowTokens)
	}
	if r.DRAMWriteBytes <= rb.DRAMWriteBytes {
		t.Error("overflow did not add DRAM write traffic")
	}
	if r.Cycles <= rb.Cycles {
		t.Error("overflow did not cost cycles")
	}
}

// The shipped configurations must match the paper's Table 3.
func TestConfigsMatchTable3(t *testing.T) {
	u := UnfoldConfig()
	if u.FreqHz != 800e6 {
		t.Errorf("UNFOLD frequency %v, want 800 MHz", u.FreqHz)
	}
	if u.StateCache.SizeBytes != 256<<10 || u.StateCache.Assoc != 4 {
		t.Errorf("UNFOLD state cache %+v", u.StateCache)
	}
	if u.AMArcCache.SizeBytes != 512<<10 || u.AMArcCache.Assoc != 8 {
		t.Errorf("UNFOLD AM arc cache %+v", u.AMArcCache)
	}
	if u.LMArcCache.SizeBytes != 32<<10 || u.TokenCache.SizeBytes != 128<<10 {
		t.Errorf("UNFOLD LM/token caches %+v %+v", u.LMArcCache, u.TokenCache)
	}
	if u.OffsetEntries != 32<<10 || u.HashBytes != 576<<10 || u.MemInflight != 32 {
		t.Errorf("UNFOLD offset/hash/meminflight %d %d %d", u.OffsetEntries, u.HashBytes, u.MemInflight)
	}
	// 32K entries x 6 bytes = 192 KB, the paper's offset-table budget.
	if u.OffsetEntries*OffsetEntryBytes != 192<<10 {
		t.Errorf("offset table bytes %d, want 192 KB", u.OffsetEntries*OffsetEntryBytes)
	}
	b := BaselineConfig()
	if b.FreqHz != 600e6 {
		t.Errorf("baseline frequency %v, want 600 MHz", b.FreqHz)
	}
	if b.StateCache.SizeBytes != 512<<10 || b.AMArcCache.SizeBytes != 1<<20 ||
		b.TokenCache.SizeBytes != 512<<10 || b.HashBytes != 768<<10 {
		t.Errorf("baseline caches %+v %+v %+v hash %d", b.StateCache, b.AMArcCache, b.TokenCache, b.HashBytes)
	}
	if b.LMArcCache.SizeBytes != 0 || b.OffsetEntries != 0 {
		t.Error("baseline must have no LM cache or offset table")
	}
}
