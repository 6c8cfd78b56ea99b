package main

import (
	"testing"
	"time"
)

// TestSmoke is `go run ./bench -smoke`: every workload, both passes, on
// the 40-word fixture, every named metric present, plus the on-the-fly =
// fully-composed gate.
func TestSmoke(t *testing.T) {
	start := time.Now()
	if err := runSmoke(t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Second && !raceDetector {
		t.Errorf("smoke took %v, budget is 10 s", took)
	}
}

// A perturbed reference transcript must turn every workload's run
// incorrect: the gate is live on each path (direct decode, HTTP on both
// routes).
func TestPerturbedTranscriptFailsRun(t *testing.T) {
	for _, w := range workloadDefs {
		cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.3, smoke: true, outDir: t.TempDir()}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s: unperturbed run is not correct: %v", w.Name, res.failures)
		}
		cfg.perturb = func(refs [][]int32) {
			for i := range refs {
				refs[i] = append(append([]int32(nil), refs[i]...), 1)
			}
		}
		res, err = runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || len(res.failures) == 0 {
			t.Errorf("%s: perturbed transcripts passed: correct=%v failed=%d", w.Name, res.Correct, res.Failed)
		}
	}
}
