package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Wire types of the serving API, owned by the benchmark: only the fields it
// sends or reads.

type wireUtterance struct {
	Frames [][]float32 `json:"frames"`
}

type wireRecognizeRequest struct {
	Utterances []wireUtterance `json:"utterances"`
}

type wireBias struct {
	Tenant  string   `json:"tenant"`
	Phrases []string `json:"phrases"`
}

type wireRecognizeResponse struct {
	Results []struct {
		Text  string `json:"text"`
		Error string `json:"error"`
	} `json:"results"`
	Degraded int `json:"degraded"`
}

type wireStreamUpdate struct {
	Text     string `json:"text"`
	Final    bool   `json:"final"`
	Degraded int    `json:"degraded"`
	Error    string `json:"error"`
}

// request is one entry of the generated traffic: what to send and, in the
// open loop, when it is due (offset from the phase start).
type request struct {
	due    time.Duration
	stream bool
	utt    int
	tenant int // -1: no bias block
}

// key numbers a request's input: its utterance on its route.
func (r request) key() int {
	if r.stream {
		return 2*r.utt + 1
	}
	return 2 * r.utt
}

// makeSchedule generates n requests from rng as whole cycles over every
// utterance on both routes, each cycle in its own shuffled order (the last
// one cut short when n is not a multiple of 2*utts): half the requests are
// streams and every input is sent equally often, whatever the seed. Every
// biasEvery-th request carries a bias block from a uniformly drawn tenant.
// With rate > 0 request i is due at i/rate (evenly spaced: the open loop's
// fixed rate_rps).
func makeSchedule(rng *rand.Rand, n int, rate float64, utts, tenants int) []request {
	out := make([]request, 0, n)
	for len(out) < n {
		for _, k := range rng.Perm(2 * utts) {
			if len(out) == n {
				break
			}
			i := len(out)
			r := request{stream: k%2 == 1, utt: k / 2, tenant: -1}
			if i%biasEvery == biasEvery-1 {
				r.tenant = rng.Intn(tenants)
			}
			if rate > 0 {
				r.due = time.Duration(float64(i) / rate * float64(time.Second))
			}
			out = append(out, r)
		}
	}
	return out
}

// makeTenants draws each tenant's phrase list from the pool's reference
// transcripts: one- and two-word phrases the model's lexicon knows.
func makeTenants(rng *rand.Rand, n int, refs [][]string) [][]byte {
	out := make([][]byte, n)
	for t := range out {
		b := wireBias{Tenant: fmt.Sprintf("tenant-%d", t)}
		for len(b.Phrases) < biasPhrases {
			ref := refs[rng.Intn(len(refs))]
			if len(ref) == 0 {
				continue
			}
			i := rng.Intn(len(ref))
			phrase := ref[i]
			if i+1 < len(ref) && rng.Intn(2) == 0 {
				phrase += " " + ref[i+1]
			}
			b.Phrases = append(b.Phrases, phrase)
		}
		out[t], _ = json.Marshal(b) // strings only: cannot fail
	}
	return out
}

// encodedUtt is one utterance's pre-marshaled request bodies, so the
// generator never marshals feature frames on the clock.
type encodedUtt struct {
	recognize []byte   // {"utterances":[{"frames":[...]}]}
	chunks    [][]byte // one {"frames":[...]} object per streamChunk frames
	frames    int
}

func encodeUtt(frames [][]float32) (encodedUtt, error) {
	e := encodedUtt{frames: len(frames)}
	var err error
	if e.recognize, err = json.Marshal(wireRecognizeRequest{Utterances: []wireUtterance{{frames}}}); err != nil {
		return e, err
	}
	for lo := 0; lo < len(frames); lo += streamChunk {
		line, err := json.Marshal(wireUtterance{frames[lo:min(lo+streamChunk, len(frames))]})
		if err != nil {
			return e, err
		}
		e.chunks = append(e.chunks, line)
	}
	return e, nil
}

// withBias splices a bias block in front of a JSON object's closing brace.
func withBias(dst, obj, block []byte) []byte {
	dst = append(dst, obj[:len(obj)-1]...)
	dst = append(dst, `,"bias":`...)
	dst = append(dst, block...)
	return append(dst, '}')
}

// body assembles the request body: the whole utterance on /v1/recognize,
// every NDJSON chunk back to back on /v1/stream (the bias block rides on the
// first line).
func (e encodedUtt) body(stream bool, bias []byte) []byte {
	if !stream {
		if bias == nil {
			return e.recognize
		}
		return withBias(make([]byte, 0, len(e.recognize)+len(bias)+16), e.recognize, bias)
	}
	size := len(bias) + 16
	for _, line := range e.chunks {
		size += len(line) + 1
	}
	buf := make([]byte, 0, size)
	for i, line := range e.chunks {
		if i == 0 && bias != nil {
			buf = withBias(buf, line, bias)
		} else {
			buf = append(buf, line...)
		}
		buf = append(buf, '\n')
	}
	return buf
}

// outcome is what the client saw of one request.
type outcome struct {
	req          request
	ok           bool // 200, final transcript, not degraded, no error field
	text         string
	sent         time.Time // when the request was handed to the transport
	firstPartial time.Time // first response line (streams only)
	done         time.Time
	detail       string // why !ok
}

// client drives the served model over keep-alive connections.
type client struct {
	url     string
	http    *http.Client
	utts    []encodedUtt
	tenants [][]byte
	tr      *tracer
}

func newClient(url string, conns int, utts []encodedUtt, tenants [][]byte) *client {
	return &client{
		url: url,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		utts:    utts,
		tenants: tenants,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// body assembles r's request body. The open loop does it ahead of the due
// time: copying a stream's ~100 KB of lines takes half a millisecond.
func (c *client) body(r request) []byte {
	var bias []byte
	if r.tenant >= 0 {
		bias = c.tenants[r.tenant]
	}
	return c.utts[r.utt].body(r.stream, bias)
}

// do sends one request and reads its reply to the end. op and parent place
// the http.* span in the trace.
func (c *client) do(r request, body []byte, parent, op int) (o outcome) {
	o.req = r
	route, ctype, name := "/v1/recognize", "application/json", spanHTTPRecog
	if r.stream {
		route, ctype, name = "/v1/stream", "application/x-ndjson", spanHTTPStream
	}
	o.sent = time.Now()
	id := c.tr.begin(name, parent, op)
	defer func() {
		o.done = time.Now()
		c.tr.end(id)
	}()
	resp, err := c.http.Post(c.url+route, ctype, bytes.NewReader(body))
	if err != nil {
		o.detail = err.Error()
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostic only
		o.detail = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return o
	}
	if r.stream {
		c.readStream(resp.Body, &o)
	} else {
		c.readRecognize(resp.Body, &o)
	}
	return o
}

func (c *client) readRecognize(body io.Reader, o *outcome) {
	var resp wireRecognizeResponse
	if err := json.NewDecoder(body).Decode(&resp); err != nil {
		o.detail = "bad response: " + err.Error()
		return
	}
	switch {
	case len(resp.Results) != 1:
		o.detail = fmt.Sprintf("%d results for 1 utterance", len(resp.Results))
	case resp.Results[0].Error != "":
		o.detail = resp.Results[0].Error
	case resp.Degraded != 0:
		o.detail = fmt.Sprintf("degraded to level %d", resp.Degraded)
	default:
		o.ok, o.text = true, resp.Results[0].Text
	}
}

func (c *client) readStream(body io.Reader, o *outcome) {
	rd := bufio.NewReaderSize(body, 16<<10)
	sawFinal := false
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if o.firstPartial.IsZero() {
				o.firstPartial = time.Now()
			}
			var u wireStreamUpdate
			if jerr := json.Unmarshal(line, &u); jerr != nil {
				o.detail = "bad stream line: " + jerr.Error()
				return
			}
			if u.Final {
				sawFinal = true
				switch {
				case u.Error != "":
					o.detail = u.Error
				case u.Degraded != 0:
					o.detail = fmt.Sprintf("degraded to level %d", u.Degraded)
				default:
					o.ok, o.text = true, u.Text
				}
			}
		}
		if err != nil {
			break
		}
	}
	if !sawFinal && o.detail == "" {
		o.detail = "stream ended without a final line"
	}
}

// spinWindow is how long before a due time the generator stops sleeping:
// on the reference VM a Sleep overshoots by anything up to 1.1 ms.
const spinWindow = 1500 * time.Microsecond

// openLoop sends the schedule at its due times from at most workers
// goroutines, one keep-alive connection each. A worker takes the next
// request in order, builds its body, sleeps until it is due and sends it; a
// request whose turn comes after its due time goes out late, and because
// latency is timed from the due time that wait is charged to the system,
// not hidden. Operation ids start at opBase. It returns one outcome per
// request plus how late each was sent.
func (c *client) openLoop(schedule []request, workers, opBase int) (outcomes []outcome, start time.Time, late []time.Duration) {
	outcomes = make([]outcome, len(schedule))
	late = make([]time.Duration, len(schedule))
	start = time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(schedule) {
					return
				}
				r := schedule[i]
				body := c.body(r)
				due := start.Add(r.due)
				// Sleep to just short of the due time, then yield until it
				// arrives.
				if d := time.Until(due) - spinWindow; d > 0 {
					time.Sleep(d)
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				op := c.tr.beginAt(spanOp, -1, opBase+i, due)
				gl := c.tr.beginAt(spanGenLate, op, opBase+i, due)
				c.tr.end(gl)
				outcomes[i] = c.do(r, body, op, opBase+i)
				c.tr.end(op)
				late[i] = max(0, outcomes[i].sent.Sub(due))
			}
		}()
	}
	wg.Wait()
	return outcomes, start, late
}

// closedLoop runs clients goroutines for d, each sending its own seeded
// request sequence back to back: saturated throughput.
func (c *client) closedLoop(seed int64, clients int, d time.Duration, opBase int) (outcomes []outcome, start time.Time, elapsed time.Duration) {
	per := make([][]outcome, clients)
	start = time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w) + 1))
			for n := 0; time.Now().Before(deadline); {
				// One cycle at a time: every utterance on both routes per client.
				for _, r := range makeSchedule(rng, 2*len(c.utts), 0, len(c.utts), len(c.tenants)) {
					if !time.Now().Before(deadline) {
						break
					}
					op := opBase + w + clients*n
					id := c.tr.begin(spanOp, -1, op)
					per[w] = append(per[w], c.do(r, c.body(r), id, op))
					c.tr.end(id)
					n++
				}
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, p := range per {
		outcomes = append(outcomes, p...)
	}
	return outcomes, start, elapsed
}

// scrape fetches and parses the server's /metrics page.
func (c *client) scrape() (promText, error) {
	resp, err := c.http.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// serveMixed drives the in-process server the way unfold-loadgen would:
// phase A is an open loop at rateRPS for phaseAShare of -seconds (latency,
// first partial and SLO come from it), phase B a closed loop of nproc
// clients for the rest (frames_per_s comes from it).
func (r *run) serveMixed() (float64, error) {
	sys, pool := r.fx.sys, r.fx.pool
	nproc := runtime.NumCPU()
	t0 := time.Now()

	// Decode every pool utterance directly at the server's own search
	// configuration: the transcripts the server must reproduce byte for
	// byte, and the baseline of server.overhead. (System.Recognize is not
	// that reference: it turns preemptive pruning on, server.Config{} does
	// not, and on big-gmm 3 of 64 transcripts differ between the two.)
	dec, err := sys.newSearcher(searchServer)
	if err != nil {
		return 0, err
	}
	directMs := make([]float64, len(pool))
	i := 0
	wer, err := r.referencePass(func(u utterance) ([]int32, error) {
		t := time.Now()
		words, _ := r.splitOp(dec, nil, u, 0)
		directMs[i] = float64(time.Since(t)) / 1e6
		i++
		return words, nil
	})
	if err != nil {
		return 0, err
	}
	refText := make([]string, len(pool))
	refWords := make([][]string, len(pool))
	encoded := make([]encodedUtt, len(pool))
	var bodyBytes int64
	for i, u := range pool {
		refText[i] = sys.text(r.refs[i])
		refWords[i] = strings.Fields(sys.text(u.ref))
		if encoded[i], err = encodeUtt(u.frames); err != nil {
			return 0, err
		}
		bodyBytes += int64(len(encoded[i].recognize))
	}
	if r.cfg.trace {
		r.layerProbes(dec, searchServer)
		r.directSplit(dec)
	}

	sv, err := sys.serve()
	if err != nil {
		return 0, err
	}
	c := newClient(sv.url, nproc, encoded, makeTenants(r.rng, biasTenants, refWords))
	defer func() {
		c.close()
		if cerr := sv.close(); cerr != nil {
			r.warnf("closing the server: %v", cerr)
		}
	}()

	// check books an outcome's failure, and for an unbiased request holds
	// its transcript against the direct one.
	check := func(what string, o outcome) bool {
		switch {
		case !o.ok:
			r.failf("%s: request for utterance %d failed: %s", what, o.req.utt, o.detail)
			return false
		case o.req.tenant < 0 && o.text != refText[o.req.utt]:
			r.failf("%s: utterance %d over HTTP is %q, direct decode gave %q", what, o.req.utt, o.text, refText[o.req.utt])
			return false
		}
		return true
	}

	// Warm-up: every utterance once per route, one request at a time. The
	// /v1/recognize half is also the server-overhead probe.
	var overhead []float64
	for _, stream := range []bool{false, true} {
		for i := range pool {
			req := request{stream: stream, utt: i, tenant: -1}
			o := c.do(req, c.body(req), -1, -1)
			if check("warm-up", o) && !stream {
				overhead = append(overhead, float64(o.done.Sub(o.sent))/1e6-directMs[i])
			}
		}
	}
	r.warmS = time.Since(t0).Seconds()

	d := time.Duration(r.cfg.seconds * float64(time.Second))
	durA := time.Duration(float64(d) * phaseAShare)
	c.tr = r.tr

	// Phase A: whole cycles over the 2*len(pool) inputs, as many as fit. An
	// attempt whose generator ran late measured the box (a stalled VM, a
	// starved client), not the server: it is discarded and the phase run
	// again, and the run fails when the last attempt is late too. Operations
	// that failed in a discarded attempt stay failed.
	cycle := 2 * len(pool)
	n := cycle * max(r.minPasses(), int(rateRPS*durA.Seconds())/cycle)
	keyFrames := make([]int, cycle)
	for i, e := range encoded {
		keyFrames[2*i], keyFrames[2*i+1] = e.frames, e.frames
	}
	var m0, m1 runtime.MemStats
	var genLate float64
	var framesA int64
	sent := 0
	for attempt := 1; ; attempt++ {
		schedule := makeSchedule(r.rng, n, rateRPS, len(pool), biasTenants)
		r.keys(keyFrames)
		runtime.ReadMemStats(&m0)
		outcomes, start, late := c.openLoop(schedule, nproc, sent)
		sent += n
		lateMs := make([]float64, n)
		var allMs []float64
		framesA = 0
		for i, o := range outcomes {
			lateMs[i] = float64(late[i]) / 1e6
			due := start.Add(o.req.due)
			ok := check("open loop", o)
			lat, first := float64(o.done.Sub(due))/1e6, -1.0
			if ok && o.req.stream {
				first = float64(o.firstPartial.Sub(due)) / 1e6
			}
			r.sample(o.req.key(), ok, lat, first)
			if ok {
				allMs = append(allMs, lat)
				framesA += int64(encoded[o.req.utt].frames)
			}
		}
		genLate = percentile(lateMs, 0.90)
		p50 := percentile(allMs, 0.50)
		if r.cfg.smoke || genLate <= maxLateShare*p50 {
			break
		}
		msg := fmt.Sprintf("open loop invalid, attempt %d of %d: generator lateness p90 %.3f ms exceeds %.0f%% of latency p50 %.3f ms",
			attempt, openLoopAttempts, genLate, 100*maxLateShare, p50)
		if attempt == openLoopAttempts {
			r.failf("%s", msg)
			break
		}
		r.warnf("%s; discarded", msg)
	}
	r.fold()

	// Phase B. frames_per_s is the median over the phase's whole seconds of
	// the frames whose requests completed in that second. Traced, the first
	// half runs untraced as the overhead baseline.
	var framesB int64
	phaseB := func(tr *tracer, d time.Duration, opBase int) float64 {
		c.tr = tr
		outs, start, took := c.closedLoop(r.cfg.seed, nproc, d, opBase)
		perSecond := make([]float64, int(took/time.Second))
		var frames int64
		for _, o := range outs {
			r.res.Attempted++
			if !check("closed loop", o) {
				r.res.Failed++
				continue
			}
			f := encoded[o.req.utt].frames
			frames += int64(f)
			if s := int(o.done.Sub(start) / time.Second); s < len(perSecond) {
				perSecond[s] += float64(f)
			}
		}
		framesB += frames
		mean := ratio(float64(frames), took.Seconds())
		r.fps = mean // a phase shorter than a second (-smoke) has no whole one
		if len(perSecond) > 0 {
			r.fps = median(perSecond)
		}
		return mean
	}
	if r.cfg.trace {
		base := phaseB(nil, (d-durA)/2, 0)
		traced := phaseB(r.tr, (d-durA)/2, sent)
		r.layer["bench.trace_overhead_ratio"] = ratio(base, traced)
	} else {
		phaseB(nil, d-durA, 0)
	}
	runtime.ReadMemStats(&m1)
	if !r.cfg.trace {
		r.sampleHeap() // server, pool workers, bias caches and connections still up
		return wer, nil
	}

	prom, err := c.scrape()
	if err != nil {
		return 0, fmt.Errorf("scraping /metrics: %w", err)
	}
	l := r.layer
	l["bench.sent"] = float64(n)
	l["bench.gen_late_p90_ms"] = genLate
	l["bench.span_sum_ratio"] = spanSumRatio(r.tr.snapshot(), spanOp)
	r.layerAllocs(m0, m1, framesA+framesB)
	l["server.first_partial_p50_ms"] = percentile(r.firstMs, 0.50)
	l["server.first_partial_p90_ms"] = percentile(r.firstMs, 0.90)
	l["server.overhead_p50_ms"] = median(overhead)
	l["server.request_bytes_per_frame"] = ratio(float64(bodyBytes), float64(r.fx.frames))
	meanMs := func(route string) float64 {
		return 1e3 * ratio(prom.sum("unfold_server_request_seconds_sum", "route", route, "outcome", "ok"),
			prom.sum("unfold_server_request_seconds_count", "route", route, "outcome", "ok"))
	}
	l["server.recognize_mean_ms"] = meanMs("/v1/recognize")
	l["server.stream_mean_ms"] = meanMs("/v1/stream")
	l["server.shed_total"] = prom.sum("unfold_server_shed_total")
	l["server.degraded_total"] = prom.sum("unfold_server_degraded_total")
	l["server.errors_total"] = prom.sum("unfold_server_errors_total")
	l["server.partials_dropped_total"] = prom.sum("unfold_server_stream_partials_dropped_total")
	l["server.stream_stalls_total"] = prom.sum("unfold_server_stream_stalls_total")
	l["bias.requests_total"] = prom.sum("unfold_bias_requests_total")
	hits := prom.sum("unfold_bias_compile_cache_hits_total")
	l["bias.compile_hit_ratio"] = ratio(hits, hits+prom.sum("unfold_bias_compile_cache_misses_total"))
	// The served share of the search: direct search time per frame over the
	// sequential request latency per frame.
	if perFrame := ratio(median(overhead)+median(directMs), float64(r.fx.frames)/float64(len(pool))) * 1e6; perFrame > 0 {
		l["decoder.time_share"] = l["decoder.search_ns_per_frame"] / perFrame
		l["acoustic.time_share"] = l["acoustic.score_ns_per_frame"] / perFrame
	}
	return wer, nil
}
