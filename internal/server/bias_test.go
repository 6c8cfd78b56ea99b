package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	unfold "repro"
	"repro/internal/bias"
	"repro/internal/decoder"
)

// biasOracle decodes frames through a private solo decoder carrying the
// same machine the server compiles for (phrases, bonus) — the ground truth
// every biased HTTP response must reproduce byte-for-byte.
func biasOracle(t *testing.T, sys *unfold.System, phrases []string, bonus float32, frames [][]float32) *decoder.Result {
	t.Helper()
	dec, err := decoder.NewOnTheFly(sys.Task.AM.G, sys.Task.LMGraph.G, decoder.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(phrases) > 0 {
		m, err := bias.Compile(phrases, bonus, newWordLookup(sys.Task.Lex.Words))
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.SetOptions(decoder.Options{Bias: m}); err != nil {
			t.Fatal(err)
		}
	}
	return dec.Decode(sys.Task.Scorer.ScoreUtterance(frames))
}

// postRecognize marshals req and returns the recorder.
func postRecognize(t *testing.T, s *Server, req recognizeRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recognize", bytes.NewReader(body)))
	return rec
}

// refPhrases returns utterance utt's reference words as single-word bias
// phrases — guaranteed in-lexicon, so the machine always has match arcs.
func refPhrases(sys *unfold.System, utt int) []string {
	return sys.Words(sys.TestSet()[utt].Words)
}

// TestRecognizeBiasIdentity checks the no-bias contract at the HTTP
// boundary: an omitted bias block, an empty one, and a tenant-only one all
// produce responses identical to each other (a block without phrases is
// exactly the nil path).
func TestRecognizeBiasIdentity(t *testing.T) {
	// Zero lanes: the solo decode engine, the only one the server runs.
	t.Run("lanes=0", func(t *testing.T) {
		s := newLoadedServer(t, Config{Workers: 2})
		defer s.Close()
		defer s.DrainModel(DefaultModel)
		sys := getSystem(t)

		var req recognizeRequest
		for _, u := range sys.TestSet() {
			req.Utterances = append(req.Utterances, utteranceRequest{Frames: u.Frames})
		}
		decode := func(b *biasRequest) recognizeResponse {
			t.Helper()
			req.Bias = b
			rec := postRecognize(t, s, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("recognize: %d %s", rec.Code, rec.Body.String())
			}
			var resp recognizeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			return resp
		}

		base := decode(nil)
		for name, b := range map[string]*biasRequest{
			"empty_block": {},
			"tenant_only": {Tenant: "acme"},
		} {
			got := decode(b)
			for i := range base.Results {
				if fmt.Sprint(got.Results[i].Words) != fmt.Sprint(base.Results[i].Words) ||
					got.Results[i].Cost != base.Results[i].Cost {
					t.Errorf("%s utt %d: diverged from the unbiased decode", name, i)
				}
			}
		}
	})
}

// TestRecognizeBiasMatchesSoloOracle posts biased batches and checks every
// transcript against a private solo decoder carrying the identical machine,
// then checks the compiler-cache telemetry: the first request is a miss, the
// repeat a hit, and the per-tenant series appear under the tenant label.
func TestRecognizeBiasMatchesSoloOracle(t *testing.T) {
	// Zero lanes: the solo decode engine, the only one the server runs.
	t.Run("lanes=0", func(t *testing.T) {
		s := newLoadedServer(t, Config{Workers: 2})
		defer s.Close()
		defer s.DrainModel(DefaultModel)
		sys := getSystem(t)

		phrases := refPhrases(sys, 0)
		var req recognizeRequest
		for _, u := range sys.TestSet() {
			req.Utterances = append(req.Utterances, utteranceRequest{Frames: u.Frames})
		}
		req.Bias = &biasRequest{Tenant: "acme", Phrases: phrases}
		for round := 0; round < 2; round++ {
			rec := postRecognize(t, s, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d: %d %s", round, rec.Code, rec.Body.String())
			}
			var resp recognizeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			for i, u := range sys.TestSet() {
				want := biasOracle(t, sys, phrases, DefaultBiasBonus, u.Frames)
				if fmt.Sprint(resp.Results[i].Words) != fmt.Sprint(want.Words) ||
					resp.Results[i].Cost != float64(want.Cost) {
					t.Errorf("round %d utt %d: biased server decode diverged from the solo oracle", round, i)
				}
			}
		}

		mrec := httptest.NewRecorder()
		s.Handler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		out := mrec.Body.String()
		if v := metricValue(out, "unfold_bias_requests_total"); v != 2 {
			t.Errorf("unfold_bias_requests_total = %g, want 2", v)
		}
		if v := metricValue(out, `unfold_bias_compile_cache_misses_total{model="default"}`); v != 1 {
			t.Errorf("compile cache misses = %g, want 1 (second request must hit)", v)
		}
		if v := metricValue(out, `unfold_bias_compile_cache_hits_total{model="default"}`); v != 1 {
			t.Errorf("compile cache hits = %g, want 1", v)
		}
		// The per-tenant series carry the same miss-then-hit.
		for _, kind := range []string{"hits", "misses"} {
			series := fmt.Sprintf(`unfold_bias_tenant_compile_%s_total{model="default",tenant="acme"}`, kind)
			if v := metricValue(out, series); v != 1 {
				t.Errorf("%s = %g, want 1:\n%s", series, v, grepLines(out, "unfold_bias_tenant"))
			}
		}
	})
}

// grepLines filters a /metrics dump to lines containing sub, for error
// messages.
func grepLines(out, sub string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, sub) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestRecognizeBadBias checks the structured 400 on a bias block the
// compiler rejects (negative bonus), and that the decode never ran.
func TestRecognizeBadBias(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	defer s.Close()
	sys := getSystem(t)

	req := recognizeRequest{
		Utterances: []utteranceRequest{{Frames: sys.TestSet()[0].Frames}},
		Bias:       &biasRequest{Tenant: "acme", Phrases: refPhrases(sys, 0), Bonus: -3},
	}
	rec := postRecognize(t, s, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad bias: got %d %s, want 400", rec.Code, rec.Body.String())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Reason != "bad_bias" {
		t.Errorf("reason = %q, want bad_bias", eb.Reason)
	}
}

// TestStreamBias drives a chunked NDJSON stream whose first line carries
// the bias block and checks the final transcript against the solo biased
// oracle.
func TestStreamBias(t *testing.T) {
	// Zero lanes: the solo decode engine, the only one the server runs.
	t.Run("lanes=0", func(t *testing.T) {
		s := newLoadedServer(t, Config{Workers: 1})
		defer s.Close()
		defer s.DrainModel(DefaultModel)
		sys := getSystem(t)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		u := sys.TestSet()[0]
		phrases := refPhrases(sys, 0)
		want := biasOracle(t, sys, phrases, DefaultBiasBonus, u.Frames)

		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		half := len(u.Frames) / 2
		enc.Encode(streamChunk{Frames: u.Frames[:half], Bias: &biasRequest{Tenant: "acme", Phrases: phrases}})
		enc.Encode(streamChunk{Frames: u.Frames[half:]})
		resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", &body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("stream: %d %s", resp.StatusCode, b)
		}
		var last streamUpdate
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
		}
		if !last.Final || last.Error != "" {
			t.Fatalf("stream did not finish cleanly: %+v", last)
		}
		if fmt.Sprint(last.Words) != fmt.Sprint(want.Words) || last.Cost != float64(want.Cost) {
			t.Errorf("biased stream diverged from the solo oracle: got %v cost %g, want %v cost %g",
				last.Words, last.Cost, want.Words, float64(want.Cost))
		}
	})
}

// TestStreamBadBias checks a rejected bias block on the first stream line
// answers a clean 400 before any NDJSON output is committed.
func TestStreamBadBias(t *testing.T) {
	s := newLoadedServer(t, Config{Workers: 1})
	defer s.Close()
	sys := getSystem(t)

	var body bytes.Buffer
	json.NewEncoder(&body).Encode(streamChunk{
		Frames: sys.TestSet()[0].Frames[:2],
		Bias:   &biasRequest{Phrases: refPhrases(sys, 0), Bonus: -1},
	})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream", &body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("got %d %s, want 400", rec.Code, rec.Body.String())
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Reason != "bad_bias" {
		t.Errorf("reason = %q, want bad_bias", eb.Reason)
	}
}
