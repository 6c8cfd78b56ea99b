// Command unfold-loadgen drives an unfold-serve instance with open-loop
// load — requests launch on a fixed schedule regardless of how fast the
// server answers, which is what makes overload visible: a closed-loop
// client slows down with the server and never exposes the shedding path.
//
// Utterances are synthesized from the same seeded task generator the
// server uses, so the run is reproducible end to end: same -task, -scale
// and -seed produce byte-identical feature frames. The target rate is
// either explicit (-rps) or calibrated: a short sequential warm-up
// measures per-decode latency, capacity is estimated as
// workers/median-latency, and the run drives -multiplier times that.
//
// The report is one JSON object on stdout: outcome counts (ok, shed,
// deadline, errors), accepted-latency percentiles, and degraded-decode
// counts. Exit status is the CI contract: nonzero when any 5xx or
// transport failure occurred, or when accepted p99 exceeds -max-p99.
//
// -chaos turns the run into a fault drill (docs/ROBUSTNESS.md): while the
// normal load keeps hammering the default model, the generator corrupts
// the bundle behind -chaos-model in place on disk (it must share a
// filesystem with the server), parks stalled streaming clients on the
// server, and probes the victim model throughout. Past the heal point it
// restores the bundle and waits for the supervisor to reload the victim.
// The chaos contract extends the exit status: the victim must be seen
// quarantined (the server needs -health-interval set low enough), must
// return to ready after the heal, and neither model may answer 5xx.
//
// Examples:
//
// -tenants turns the run into a multi-tenant biased-decoding drill: each
// request carries a bias block for one of N synthetic tenants, picked from
// a Zipf distribution (-zipf) so a hot head of tenants dominates while a
// long tail churns the server's compiled-machine cache. Every tenant's
// phrase list is deterministic in the task seed. The report gains a bias
// section scraped from the server's /metrics: the compile-cache hit rate
// and how many tenants the server compiled for, with zero 5xx as the pass
// bar.
//
// Examples:
//
//	unfold-loadgen -target http://localhost:8080 -rps 20 -duration 30s
//	unfold-loadgen -multiplier 4 -duration 10s -max-p99 8s   # 4x capacity
//	unfold-loadgen -rps 10 -duration 12s -chaos -chaos-bundle /models/vox.ufb3 -chaos-model vox
//	unfold-loadgen -rps 20 -duration 15s -tenants 32 -zipf 1.2   # tenant churn
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	unfold "repro"
	"repro/internal/faultinject"
	"repro/internal/task"
)

type options struct {
	target      string
	taskName    string
	scale       float64
	seed        int64
	rps         float64
	multiplier  float64
	duration    time.Duration
	streamFrac  float64
	timeout     time.Duration
	uttFrames   int
	maxInflight int
	waitReady   time.Duration
	maxP99      time.Duration
	chaos       bool
	chaosBundle string
	chaosModel  string
	chaosSeed   int64
	chaosStalls int
	tenants     int
	zipfS       float64
	biasWords   int
	biasBonus   float64
}

// report is the JSON document the run prints.
type report struct {
	TargetRPS     float64        `json:"target_rps"`
	AchievedRPS   float64        `json:"achieved_rps"`
	Duration      string         `json:"duration"`
	Sent          int64          `json:"sent"`
	Outcomes      map[string]int `json:"outcomes"`
	Degraded      int64          `json:"degraded"`
	LatencyMs     latencyReport  `json:"accepted_latency_ms"`
	CapacityRPS   float64        `json:"calibrated_capacity_rps,omitempty"`
	Chaos         *chaosReport   `json:"chaos,omitempty"`
	Bias          *biasReport    `json:"bias,omitempty"`
	FailureReason string         `json:"failure_reason,omitempty"`
}

// biasReport is the -tenants section: the server-side view of the tenant
// churn, scraped from /metrics after the load stops.
type biasReport struct {
	Tenants        int     `json:"tenants"`
	CompileHits    float64 `json:"compile_cache_hits"`
	CompileMisses  float64 `json:"compile_cache_misses"`
	CompileHitRate float64 `json:"compile_cache_hit_rate"`
	// TenantsSeen counts the tenant labels carrying compile traffic in the
	// unfold_bias_tenant_compile_{hits,misses}_total series (tenants past
	// the server's cardinality cap share one overflow label). Zero means
	// the server never saw a tenant block.
	TenantsSeen int `json:"tenants_seen"`
}

// chaosReport is the -chaos section of the run report: what was injected,
// what the victim model answered, and whether the supervisor healed it.
type chaosReport struct {
	Model          string         `json:"model"`
	StalledStreams int            `json:"stalled_streams"`
	CorruptAtMs    float64        `json:"corrupt_at_ms"`
	HealAtMs       float64        `json:"heal_at_ms"`
	VictimOutcomes map[string]int `json:"victim_outcomes"`
	SawQuarantine  bool           `json:"saw_quarantine"`
	Recovered      bool           `json:"recovered"`
	RecoveryMs     float64        `json:"recovery_ms,omitempty"`
}

type latencyReport struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func main() {
	var o options
	flag.StringVar(&o.target, "target", "http://localhost:8080", "base URL of the server under test")
	flag.StringVar(&o.taskName, "task", "voxforge", "task: tedlium, librispeech, voxforge, eesen (must match the server)")
	flag.Float64Var(&o.scale, "scale", 1.0, "task scale factor (must match the server)")
	flag.Int64Var(&o.seed, "seed", 0, "override the task seed (0 = the task's own)")
	flag.Float64Var(&o.rps, "rps", 0, "target requests/sec (0 = calibrate and use -multiplier)")
	flag.Float64Var(&o.multiplier, "multiplier", 4, "target = multiplier x calibrated capacity when -rps is 0")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "length of the measured run")
	flag.Float64Var(&o.streamFrac, "stream-fraction", 0.2, "fraction of requests sent as /v1/stream")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Second, "per-request decode deadline sent to the server")
	flag.IntVar(&o.uttFrames, "utt-frames", 60, "cap utterance length in frames (0 = full utterances)")
	flag.IntVar(&o.maxInflight, "max-inflight", 256, "client-side concurrency cap; launches past it count as client_overrun")
	flag.DurationVar(&o.waitReady, "wait-ready", 30*time.Second, "max wait for /healthz to report ready (0 = don't wait)")
	flag.DurationVar(&o.maxP99, "max-p99", 0, "fail when accepted p99 exceeds this (0 = no bound)")
	flag.BoolVar(&o.chaos, "chaos", false, "inject faults during the run and assert the server self-heals")
	flag.StringVar(&o.chaosBundle, "chaos-bundle", "", "bundle file to corrupt in place (must be the file the server serves -chaos-model from)")
	flag.StringVar(&o.chaosModel, "chaos-model", "victim", "model name the server loaded -chaos-bundle under")
	flag.Int64Var(&o.chaosSeed, "chaos-seed", 42, "seed for the corruption site")
	flag.IntVar(&o.chaosStalls, "chaos-stalls", 2, "stalled streaming clients to park on the server")
	flag.IntVar(&o.tenants, "tenants", 0, "attach per-tenant bias blocks across this many synthetic tenants (0 = no biasing)")
	flag.Float64Var(&o.zipfS, "zipf", 1.2, "Zipf exponent for the tenant pick (must be > 1; used with -tenants)")
	flag.IntVar(&o.biasWords, "bias-phrases", 3, "bias phrases per tenant, drawn from the task's reference transcripts")
	flag.Float64Var(&o.biasBonus, "bias-bonus", 0, "per-word bias bonus sent with each block (0 = server default)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "unfold-loadgen:", err)
		os.Exit(1)
	}
}

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

// utterances synthesizes the request payloads from the seeded generator.
// The second return is each test utterance's reference transcript as
// surface words — the in-lexicon raw material -tenants builds phrase lists
// from.
func utterances(o options) ([][][]float32, [][]string, error) {
	spec, err := specFor(o.taskName, o.scale)
	if err != nil {
		return nil, nil, err
	}
	if o.seed != 0 {
		spec.Seed = o.seed
	}
	tk, err := task.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	var utts [][][]float32
	var refs [][]string
	for _, u := range tk.Test {
		frames := u.Frames
		if o.uttFrames > 0 && len(frames) > o.uttFrames {
			frames = frames[:o.uttFrames]
		}
		utts = append(utts, frames)
		words := make([]string, len(u.Words))
		for i, id := range u.Words {
			words[i] = tk.Lex.Words[id]
		}
		refs = append(refs, words)
	}
	if len(utts) == 0 {
		return nil, nil, fmt.Errorf("task %s produced no test utterances", spec.Name)
	}
	return utts, refs, nil
}

// tenantBlocks builds each synthetic tenant's pre-marshaled bias block.
// Tenant i's phrases are single words cycled from the reference
// transcripts starting at utterance i, so neighboring tenants bias
// different vocabulary and every block is deterministic in the task seed.
func tenantBlocks(o options, refs [][]string) [][]byte {
	blocks := make([][]byte, o.tenants)
	for ti := range blocks {
		var phrases []string
		seen := map[string]bool{}
		for w := 0; len(phrases) < o.biasWords && w < o.biasWords*4; w++ {
			ref := refs[(ti+w)%len(refs)]
			if len(ref) == 0 {
				continue
			}
			word := ref[(ti+w)%len(ref)]
			if !seen[word] {
				seen[word] = true
				phrases = append(phrases, word)
			}
		}
		block := map[string]any{
			"tenant":  fmt.Sprintf("tenant-%03d", ti),
			"phrases": phrases,
		}
		if o.biasBonus > 0 {
			block["bonus"] = o.biasBonus
		}
		blocks[ti], _ = json.Marshal(block)
	}
	return blocks
}

// withBias splices a pre-marshaled bias block into a pre-marshaled
// /v1/recognize body (which always ends in '}'), so the hot launch path
// never re-marshals feature frames.
func withBias(body, block []byte) []byte {
	out := make([]byte, 0, len(body)+len(block)+9)
	out = append(out, body[:len(body)-1]...)
	out = append(out, `,"bias":`...)
	out = append(out, block...)
	return append(out, '}')
}

// waitReady polls /healthz until the server reports ready.
func waitReady(client *http.Client, target string, limit time.Duration) (workers int, err error) {
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(target + "/healthz")
		if err == nil {
			var h struct {
				Status  string `json:"status"`
				Workers struct {
					Total int `json:"total"`
				} `json:"workers"`
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &h) == nil {
				return h.Workers.Total, nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("server at %s not ready after %v", target, limit)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// tally is the thread-safe outcome accumulator.
type tally struct {
	mu        sync.Mutex
	outcomes  map[string]int
	latencies []time.Duration
	degraded  int64
	sent      atomic.Int64
}

func newTally() *tally { return &tally{outcomes: map[string]int{}} }

func (tl *tally) record(outcome string, latency time.Duration, degraded bool) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.outcomes[outcome]++
	if outcome == "ok" {
		tl.latencies = append(tl.latencies, latency)
		if degraded {
			tl.degraded++
		}
	}
}

func classify(status int) string {
	switch {
	case status == http.StatusOK:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status == http.StatusRequestTimeout:
		return "deadline"
	case status == http.StatusServiceUnavailable:
		return "unavailable"
	case status >= 500:
		return "5xx"
	default:
		return fmt.Sprintf("http_%d", status)
	}
}

// oneBatch posts a single-utterance batch and classifies the reply.
func oneBatch(client *http.Client, o options, tl *tally, body []byte) {
	start := time.Now()
	resp, err := client.Post(o.target+"/v1/recognize", "application/json", bytes.NewReader(body))
	if err != nil {
		tl.record("transport_error", 0, false)
		return
	}
	defer resp.Body.Close()
	outcome := classify(resp.StatusCode)
	degraded := false
	if resp.StatusCode == http.StatusOK {
		var r struct {
			Degraded int `json:"degraded"`
		}
		if json.NewDecoder(resp.Body).Decode(&r) != nil {
			outcome = "bad_body"
		}
		degraded = r.Degraded > 0
	}
	io.Copy(io.Discard, resp.Body)
	tl.record(outcome, time.Since(start), degraded)
}

// oneStream runs a two-chunk NDJSON stream and classifies the final line.
// A non-nil biasBlock rides on the first line, biasing the whole stream.
func oneStream(client *http.Client, o options, tl *tally, frames [][]float32, biasBlock []byte) {
	start := time.Now()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, o.target+"/v1/stream", pr)
	if err != nil {
		tl.record("transport_error", 0, false)
		return
	}
	req.Header.Set("X-Unfold-Timeout", o.timeout.String())
	go func() {
		enc := json.NewEncoder(pw)
		half := len(frames) / 2
		if half == 0 {
			half = len(frames)
		}
		first := map[string]any{"frames": frames[:half]}
		if biasBlock != nil {
			first["bias"] = json.RawMessage(biasBlock)
		}
		enc.Encode(first)
		if half < len(frames) {
			enc.Encode(map[string][][]float32{"frames": frames[half:]})
		}
		pw.Close()
	}()
	resp, err := client.Do(req)
	if err != nil {
		tl.record("transport_error", 0, false)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		tl.record(classify(resp.StatusCode), 0, false)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	var final struct {
		Final    bool   `json:"final"`
		Degraded int    `json:"degraded"`
		Error    string `json:"error"`
	}
	sawFinal := false
	for sc.Scan() {
		if json.Unmarshal(sc.Bytes(), &final) == nil && final.Final {
			sawFinal = true
		}
	}
	switch {
	case !sawFinal:
		tl.record("stream_truncated", 0, false)
	case final.Error != "":
		tl.record("stream_error", 0, false)
	default:
		tl.record("ok", time.Since(start), final.Degraded > 0)
	}
}

// scrapeBias pulls the server's unfold_bias_* series from /metrics into
// the report: compile-cache traffic, in total and by tenant label.
func scrapeBias(client *http.Client, o options) (*biasReport, error) {
	resp, err := client.Get(o.target + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	br := &biasReport{Tenants: o.tenants}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		tenant := ""
		if i := strings.Index(labels, `tenant="`); i >= 0 {
			rest := labels[i+len(`tenant="`):]
			if j := strings.IndexByte(rest, '"'); j >= 0 {
				tenant = rest[:j]
			}
		}
		switch name {
		case "unfold_bias_compile_cache_hits_total":
			br.CompileHits += v
		case "unfold_bias_compile_cache_misses_total":
			br.CompileMisses += v
		case "unfold_bias_tenant_compile_hits_total", "unfold_bias_tenant_compile_misses_total":
			if v > 0 {
				seen[tenant] = true
			}
		}
	}
	br.TenantsSeen = len(seen)
	if tot := br.CompileHits + br.CompileMisses; tot > 0 {
		br.CompileHitRate = br.CompileHits / tot
	}
	return br, nil
}

// modelState fetches one model's lifecycle state from /v1/models.
func modelState(client *http.Client, target, name string) (string, error) {
	resp, err := client.Get(target + "/v1/models")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var list struct {
		Models []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return "", err
	}
	for _, m := range list.Models {
		if m.Name == name {
			return m.State, nil
		}
	}
	return "", fmt.Errorf("model %q not in /v1/models", name)
}

// chaosRun is the fault director for -chaos: at one fifth of the run it
// parks stalled streaming clients on the server and corrupts the victim
// bundle in place; until three fifths it probes the sick model (structured
// 503s are the contract, 5xx and dropped connections are failures); then it
// heals the bundle and waits for the supervisor's backoff reload to bring
// the victim back to ready. The injected faults are deterministic in
// -chaos-seed so a failing drill replays exactly.
func chaosRun(o options, start time.Time, probeBody, stallLine []byte) (*chaosReport, error) {
	cr := &chaosReport{Model: o.chaosModel, VictimOutcomes: map[string]int{}}
	client := &http.Client{Timeout: o.timeout + 5*time.Second}
	corruptAt := o.duration / 5
	healAt := 3 * o.duration / 5
	time.Sleep(time.Until(start.Add(corruptAt)))

	// Stalled clients promise a megabyte of frames and go silent: the
	// server's stream watchdog — not this process — must free those slots.
	var stalls []*faultinject.StalledStream
	defer func() {
		for _, st := range stalls {
			st.Close()
		}
	}()
	for i := 0; i < o.chaosStalls; i++ {
		st, err := faultinject.StallStream(o.target, "/v1/stream", stallLine)
		if err != nil {
			return cr, fmt.Errorf("stall %d: %w", i, err)
		}
		stalls = append(stalls, st)
	}
	cr.StalledStreams = len(stalls)

	sab := &faultinject.Saboteur{Path: o.chaosBundle}
	if err := sab.Corrupt(o.chaosSeed); err != nil {
		return cr, fmt.Errorf("corrupt %s: %w", o.chaosBundle, err)
	}
	cr.CorruptAtMs = float64(time.Since(start)) / float64(time.Millisecond)
	defer sab.Heal() // never leave the bundle damaged, even on error paths

	for time.Now().Before(start.Add(healAt)) {
		if state, err := modelState(client, o.target, o.chaosModel); err == nil && state == "quarantined" {
			cr.SawQuarantine = true
		}
		resp, err := client.Post(o.target+"/v1/recognize?model="+url.QueryEscape(o.chaosModel),
			"application/json", bytes.NewReader(probeBody))
		if err != nil {
			cr.VictimOutcomes["transport_error"]++
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			cr.VictimOutcomes[classify(resp.StatusCode)]++
		}
		time.Sleep(100 * time.Millisecond)
	}

	if err := sab.Heal(); err != nil {
		return cr, fmt.Errorf("heal %s: %w", o.chaosBundle, err)
	}
	healTime := time.Now()
	cr.HealAtMs = float64(healTime.Sub(start)) / float64(time.Millisecond)
	for _, st := range stalls {
		st.Close()
	}
	stalls = nil

	// Recovery is the server's job now: the next backoff attempt reloads the
	// healed bundle. -wait-ready bounds how long that may take.
	wait := o.waitReady
	if wait <= 0 {
		wait = 30 * time.Second
	}
	deadline := start.Add(o.duration).Add(wait)
	for time.Now().Before(deadline) {
		if state, err := modelState(client, o.target, o.chaosModel); err == nil && state == "ready" {
			cr.Recovered = true
			cr.RecoveryMs = float64(time.Since(healTime)) / float64(time.Millisecond)
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	return cr, nil
}

// calibrate measures sequential decode latency and estimates the server's
// aggregate capacity as workers / median-latency.
func calibrate(client *http.Client, o options, body []byte, workers int) (float64, error) {
	const probes = 8
	lat := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		start := time.Now()
		resp, err := client.Post(o.target+"/v1/recognize", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("calibration request failed: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("calibration got status %d", resp.StatusCode)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	median := lat[len(lat)/2]
	if median <= 0 {
		median = time.Millisecond
	}
	if workers <= 0 {
		workers = 1
	}
	return float64(workers) / median.Seconds(), nil
}

func percentileMs(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(p*float64(len(s)-1))]) / float64(time.Millisecond)
}

func run(o options) error {
	if o.chaos && o.chaosBundle == "" {
		return fmt.Errorf("-chaos requires -chaos-bundle (the file to corrupt)")
	}
	if o.tenants > 0 && o.zipfS <= 1 {
		return fmt.Errorf("-zipf must be > 1 (got %v)", o.zipfS)
	}
	utts, refs, err := utterances(o)
	if err != nil {
		return err
	}
	client := &http.Client{}

	workers := 0
	if o.waitReady > 0 {
		if workers, err = waitReady(client, o.target, o.waitReady); err != nil {
			return err
		}
	}

	// Request bodies are pre-marshaled: the generator cycles through the
	// task's utterances so the server sees realistic variety.
	bodies := make([][]byte, len(utts))
	for i, frames := range utts {
		bodies[i], _ = json.Marshal(map[string]any{
			"utterances": []map[string]any{{"frames": frames}},
			"timeout":    o.timeout.String(),
		})
	}

	// The tenant pick runs in the single-threaded launch loop (rand.Zipf is
	// not goroutine-safe) and is deterministic in the task seed, so a run
	// replays the same tenant sequence.
	var biasBlocks [][]byte
	var pickTenant func() int
	if o.tenants > 0 {
		biasBlocks = tenantBlocks(o, refs)
		rng := rand.New(rand.NewSource(o.seed*7919 + 12345))
		zipf := rand.NewZipf(rng, o.zipfS, 1, uint64(o.tenants-1))
		pickTenant = func() int { return int(zipf.Uint64()) }
	}

	rep := report{Outcomes: map[string]int{}}
	rate := o.rps
	if rate <= 0 {
		capacity, err := calibrate(client, o, bodies[0], workers)
		if err != nil {
			return err
		}
		rep.CapacityRPS = capacity
		rate = o.multiplier * capacity
	}
	if rate <= 0.01 {
		rate = 0.01
	}
	rep.TargetRPS = rate

	tl := newTally()
	interval := time.Duration(float64(time.Second) / rate)
	stop := time.Now().Add(o.duration)
	streamEvery := 0
	if o.streamFrac > 0 {
		streamEvery = int(1 / o.streamFrac)
	}

	// Open-loop pacing: launch i fires at start + i*interval regardless of
	// how earlier requests fared. A fixed in-flight cap keeps the client
	// itself from melting when the schedule outruns the server — launches
	// past the cap are tallied as client_overrun, the open-loop equivalent
	// of the server's own shed.
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.maxInflight)
	start := time.Now()

	// The chaos director runs beside the load and outlives it: after the
	// heal it keeps polling until the victim recovers (or -wait-ready runs
	// out), so the report always has a verdict.
	var chaosDone chan struct{}
	var chaosErr error
	if o.chaos {
		head := len(utts[0])
		if head > 2 {
			head = 2
		}
		stallLine, _ := json.Marshal(map[string][][]float32{"frames": utts[0][:head]})
		stallLine = append(stallLine, '\n')
		chaosDone = make(chan struct{})
		go func() {
			defer close(chaosDone)
			rep.Chaos, chaosErr = chaosRun(o, start, bodies[0], stallLine)
		}()
	}
	for i := 0; ; i++ {
		next := start.Add(time.Duration(float64(i) * float64(interval)))
		now := time.Now()
		if now.After(stop) {
			break
		}
		if next.After(now) {
			time.Sleep(next.Sub(now))
		}
		tl.sent.Add(1)
		select {
		case sem <- struct{}{}:
			ti := -1
			if pickTenant != nil {
				ti = pickTenant()
			}
			wg.Add(1)
			go func(i, ti int) {
				defer wg.Done()
				defer func() { <-sem }()
				if streamEvery > 0 && i%streamEvery == streamEvery-1 {
					var block []byte
					if ti >= 0 {
						block = biasBlocks[ti]
					}
					oneStream(client, o, tl, utts[i%len(utts)], block)
				} else {
					body := bodies[i%len(bodies)]
					if ti >= 0 {
						body = withBias(body, biasBlocks[ti])
					}
					oneBatch(client, o, tl, body)
				}
			}(i, ti)
		default:
			tl.record("client_overrun", 0, false)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if chaosDone != nil {
		<-chaosDone
	}

	tl.mu.Lock()
	rep.Outcomes = tl.outcomes
	rep.Degraded = tl.degraded
	rep.LatencyMs = latencyReport{
		P50: percentileMs(tl.latencies, 0.50),
		P95: percentileMs(tl.latencies, 0.95),
		P99: percentileMs(tl.latencies, 0.99),
		Max: percentileMs(tl.latencies, 1.0),
	}
	tl.mu.Unlock()
	rep.Sent = tl.sent.Load()
	rep.Duration = elapsed.String()
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.Sent) / elapsed.Seconds()
	}
	var biasScrapeErr error
	if o.tenants > 0 {
		rep.Bias, biasScrapeErr = scrapeBias(client, o)
	}

	// The CI contract: 5xx, transport failures and unbounded p99 are run
	// failures, structured rejections (shed/deadline/unavailable) are not.
	// Under -chaos the victim has its own contract: it must be quarantined
	// (else the drill proved nothing), answer only structured errors while
	// sick, and come back ready after the heal.
	switch {
	case chaosErr != nil:
		rep.FailureReason = fmt.Sprintf("chaos injection failed: %v", chaosErr)
	case o.chaos && rep.Chaos.VictimOutcomes["5xx"]+rep.Chaos.VictimOutcomes["transport_error"] > 0:
		rep.FailureReason = fmt.Sprintf("victim model answered %d 5xx and %d transport errors",
			rep.Chaos.VictimOutcomes["5xx"], rep.Chaos.VictimOutcomes["transport_error"])
	case o.chaos && !rep.Chaos.SawQuarantine:
		rep.FailureReason = "victim was never quarantined — chaos had no effect (is the server running with a short -health-interval?)"
	case o.chaos && !rep.Chaos.Recovered:
		rep.FailureReason = "victim did not return to ready after the bundle healed"
	case rep.Outcomes["5xx"] > 0:
		rep.FailureReason = fmt.Sprintf("%d 5xx responses", rep.Outcomes["5xx"])
	case rep.Outcomes["transport_error"] > 0:
		rep.FailureReason = fmt.Sprintf("%d transport errors", rep.Outcomes["transport_error"])
	case rep.Outcomes["bad_body"] > 0 || rep.Outcomes["stream_truncated"] > 0 || rep.Outcomes["stream_error"] > 0:
		rep.FailureReason = "malformed accepted responses"
	case o.maxP99 > 0 && rep.LatencyMs.P99 > float64(o.maxP99)/float64(time.Millisecond):
		rep.FailureReason = fmt.Sprintf("accepted p99 %.1fms exceeds bound %v", rep.LatencyMs.P99, o.maxP99)
	case rep.Outcomes["ok"] == 0:
		rep.FailureReason = "no request succeeded"
	case biasScrapeErr != nil:
		rep.FailureReason = fmt.Sprintf("could not scrape bias metrics: %v", biasScrapeErr)
	case o.tenants > 0 && rep.Bias.TenantsSeen == 0:
		rep.FailureReason = "no per-tenant compile series in /metrics — tenant blocks were not honored"
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if rep.FailureReason != "" {
		return fmt.Errorf("run failed: %s", rep.FailureReason)
	}
	return nil
}
