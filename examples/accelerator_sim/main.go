// Accelerator simulation: run the same test set through both simulated
// designs — UNFOLD and the fully-composed baseline accelerator — and print
// the microarchitectural story the paper tells: similar hypotheses and
// real-time margins, but far less DRAM traffic and energy for UNFOLD.
package main

import (
	"fmt"
	"log"

	"repro/internal/decoder"
	"repro/internal/metrics"

	unfold "repro"
)

func main() {
	spec := unfold.KaldiVoxforge(1.0)
	spec.TestUtterances = 15
	sys, err := unfold.NewSystem(spec)
	if err != nil {
		log.Fatal(err)
	}

	var scores [][][]float32
	frames := 0
	for _, u := range sys.TestSet() {
		scores = append(scores, sys.Scorer.ScoreUtterance(u.Frames))
		frames += len(u.Frames)
	}
	audio := metrics.AudioDuration(frames).Seconds()

	u, err := sys.NewAccelerator(decoder.Config{PreemptivePruning: true})
	if err != nil {
		log.Fatal(err)
	}
	ru, _ := u.DecodeAll(scores)

	fmt.Println("building the composed WFST for the baseline accelerator...")
	b, err := sys.NewBaselineAccelerator(decoder.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rb, _ := b.DecodeAll(scores)

	fmt.Printf("\n%-28s %14s %14s\n", "", "UNFOLD", "Reza et al.")
	row := func(name, a, c string) { fmt.Printf("%-28s %14s %14s\n", name, a, c) }
	row("decode time (ms)", fmt.Sprintf("%.3f", ru.Seconds*1e3), fmt.Sprintf("%.3f", rb.Seconds*1e3))
	row("x real time", fmt.Sprintf("%.0f", audio/ru.Seconds), fmt.Sprintf("%.0f", audio/rb.Seconds))
	row("DRAM traffic (KB)",
		fmt.Sprintf("%.1f", float64(ru.DRAMReadBytes+ru.DRAMWriteBytes)/1024),
		fmt.Sprintf("%.1f", float64(rb.DRAMReadBytes+rb.DRAMWriteBytes)/1024))
	row("energy (uJ)", fmt.Sprintf("%.1f", ru.TotalEnergyJ*1e6), fmt.Sprintf("%.1f", rb.TotalEnergyJ*1e6))
	row("avg power (mW)", fmt.Sprintf("%.1f", ru.AvgPowerW*1e3), fmt.Sprintf("%.1f", rb.AvgPowerW*1e3))
	row("area (mm^2)", fmt.Sprintf("%.1f", ru.AreaMM2), fmt.Sprintf("%.1f", rb.AreaMM2))
	row("offset table hit rate",
		fmt.Sprintf("%.1f%%", 100*float64(ru.OffsetHits)/float64(ru.OffsetHits+ru.OffsetMisses)), "-")

	fmt.Printf("\ncache miss ratios (UNFOLD): state %.2f%%, AM arc %.2f%%, LM arc %.2f%%, token %.2f%%\n",
		100*ru.Caches["State"].MissRatio(), 100*ru.Caches["AMArc"].MissRatio(),
		100*ru.Caches["LMArc"].MissRatio(), 100*ru.Caches["Token"].MissRatio())
}
