package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// featureBody is a bench-shaped /v1/recognize body: one utterance of
// frames×dim features as json.Marshal writes float32s.
func featureBody(frames, dim int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	utt := make([][]float32, frames)
	for i := range utt {
		utt[i] = make([]float32, dim)
		for j := range utt[i] {
			utt[i][j] = float32(rng.NormFloat64() * 4)
		}
	}
	body, _ := json.Marshal(recognizeRequest{Utterances: []utteranceRequest{{Frames: utt}}})
	return body
}

// sameFrames compares feature rows bit for bit, telling nil from empty.
func sameFrames(a, b [][]float32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func sameRecognize(a, b *recognizeRequest) bool {
	if (a.Utterances == nil) != (b.Utterances == nil) || len(a.Utterances) != len(b.Utterances) {
		return false
	}
	for i := range a.Utterances {
		if !sameFrames(a.Utterances[i].Frames, b.Utterances[i].Frames) {
			return false
		}
	}
	return a.Timeout == b.Timeout && a.Model == b.Model && reflect.DeepEqual(a.Bias, b.Bias)
}

func sameChunk(a, b *streamChunk) bool {
	return sameFrames(a.Frames, b.Frames) && a.Model == b.Model && reflect.DeepEqual(a.Bias, b.Bias)
}

// FuzzFeatureBody holds the feature reader to encoding/json on arbitrary
// bytes: as a /v1/recognize body (one value, with and without a byte cap
// that cuts it) and as a /v1/stream body (values until the first error),
// every decoded struct must equal json.Decoder's — floats by bit pattern,
// nil and empty apart — and every error string must be the same.
func FuzzFeatureBody(f *testing.F) {
	sixteen := "[" + strings.TrimSuffix(strings.Repeat("1,", 16), ",") + "]"
	for _, seed := range []string{
		// TestRecognizeErrorTable's bodies.
		"", "{}", "{", `{"utterances":[{"frames":[[1`,
		`{"utterances":[{"frames":[[` + strings.Repeat("1,", 300) + `1]]}]}`,
		`{"utterances":[]}`, `{"utterances":[{"frames":[]}]}`, `{"utterances":[{"frames":[[1,2]]}]}`,
		`{"utterances":[{"frames":[` + sixteen + `]}],"timeout":"soon"}`,
		`{"utterances":[{"frames":null}]}`, `{"utterances":[{}, {"frames":[[],[-0]]}]}`,
		// Numbers: signs, exponents, subnormals, the float32 range edge, and
		// what ParseFloat takes but JSON does not.
		`{"frames":[[-0,0,-0.0,1e5,1E-5,-1.5e+3,2.5E+0,0.000001]]}`,
		`{"frames":[[1e-45,1.4e-45,7e-46,1e-46,1.17549435e-38,3.4028235e38,3.4028236e38,-3.4028235e38]]}`,
		`{"frames":[[1e39]]}`, `{"frames":[[01]]}`, `{"frames":[[+1]]}`, `{"frames":[[.5]]}`,
		`{"frames":[[1.]]}`, `{"frames":[[0x1p3]]}`, `{"frames":[[inf]]}`, `{"frames":[[1e]]}`, `{"frames":[[-]]}`,
		`{"frames":[[1,null]]}`, `{"frames":[null]}`, `{"frames":[["1"]]}`, `{"frames":[[true]]}`,
		// Keys: case, escapes, duplicates, unknown fields, null.
		`{"Utterances":[{"Frames":[[1,2]]}]}`, `{"FRAMES":[[1]]}`, `{"frames":[[1]]}`,
		`{"frames":[[1]],"frames":[[2]]}`, `{"utterances":[{"frames":[[1]],"frames":[[2]]}]}`,
		`{"model":"a","model":"b"}`, `{"extra":1,"frames":[[1]]}`, `null`, `{"model":null,"bias":null}`,
		// Raw fields: escapes inside bias strings, wrong types, nesting.
		`{"frames":[[1]],"bias":{"tenant":"t\"}","phrases":["a\\b","é ]}","x,y"],"bonus":2.5}}`,
		`{"frames":[[1]],"bias":{"phrases":"nope"}}`, `{"utterances":[],"timeout":5}`,
		`{"model":"m","bias":{"phrases":[["x"]]},"frames":[[1]]}`, `{"model":tru}`, `{"model":"a"x}`,
		// Trailing bytes, and values split or packed across lines.
		`{"utterances":[{"frames":[[1,2]]}]} trailing garbage`, `{}x`, `{}{}`, `[]`, `{} ]`,
		"{\"frames\":[[1,\n2]]}\n{\"frames\":\n[[3]]}\n\n", "{\"model\":\"a\"}\n{\"frames\":[[1]]}\n{\"Frames\":[[2]]}\n{\"frames\":[[3]]}\n",
		" \t\r\n", "{\"frames\":[[1]]}\n   ",
	} {
		f.Add([]byte(seed))
	}
	// The number scanner's edges (number_test.go), one body each.
	for _, s := range scanEdges {
		f.Add([]byte(`{"frames":[[` + s + `]]}`))
	}
	f.Add(featureBody(12, 16, 1))
	f.Add(append(append(featureBody(3, 16, 2), '\n'), featureBody(2, 16, 3)...))

	f.Fuzz(func(t *testing.T, body []byte) {
		// A cap of three quarters of the body, against http.MaxBytesReader.
		for _, limit := range []int64{1 << 30, int64(len(body))*3/4 + 1} {
			var want, got recognizeRequest
			werr := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit)).Decode(&want)
			in := newFeatureReader(bytes.NewReader(body), limit)
			gerr := in.recognize(&got)
			in.release()
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("recognize, cap %d: error %v, json.Decoder %v", limit, gerr, werr)
			}
			if werr == nil && !sameRecognize(&got, &want) {
				t.Fatalf("recognize: decoded %+v, json.Decoder %+v", got, want)
			}
		}

		ref := json.NewDecoder(bytes.NewReader(body))
		in := newFeatureReader(bytes.NewReader(body), 1<<30)
		defer in.release()
		for i := 0; ; i++ {
			var want, got streamChunk
			werr := ref.Decode(&want)
			gerr := in.chunk(&got)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("stream value %d: error %v, json.Decoder %v", i, gerr, werr)
			}
			if werr != nil {
				return
			}
			if !sameChunk(&got, &want) {
				t.Fatalf("stream value %d: decoded %+v, json.Decoder %+v", i, got, want)
			}
		}
	})
}

// TestAllocsFeatureParse pins the reader's allocation bill on a bench-shaped
// body (228 frames of 16 features, ~40 KB): a constant — the slab, its row
// headers, the utterance slice — that does not grow with the frame count.
// encoding/json spent 943 objects on the same body, 4.14 per frame.
func TestAllocsFeatureParse(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under -race: counts read 9-17, not monotone in frames")
	}
	parse := func(body []byte) float64 {
		src := bytes.NewReader(body)
		var req recognizeRequest
		return testing.AllocsPerRun(20, func() {
			src.Reset(body)
			in := newFeatureReader(src, 1<<20)
			if err := in.recognize(&req); err != nil || len(req.Utterances) != 1 {
				t.Fatalf("parse: %v", err)
			}
			in.release()
		})
	}
	short, doubled := parse(featureBody(228, 16, 1)), parse(featureBody(456, 16, 1))
	t.Logf("228-frame body: %.0f objects; 456 frames: %.0f", short, doubled)
	if short > 16 {
		t.Errorf("parsing a 228-frame body allocates %.0f objects, want <= 16", short)
	}
	if doubled > short+2 {
		t.Errorf("doubling the frames grew the parse bill from %.0f to %.0f objects, want <= %.0f", short, doubled, short+2)
	}
}

// TestFeatureReaderSmall: a body under maxPooledBuf bytes of one-number rows
// keeps buf within the cap but grows vals and rowEnd past it, and such a
// reader must not go back to the pool.
func TestFeatureReaderSmall(t *testing.T) {
	parse := func(body string) *featureReader {
		in := newFeatureReader(strings.NewReader(body), 1<<30)
		var c streamChunk
		if err := in.chunk(&c); err != nil {
			t.Fatal(err)
		}
		return in
	}
	if in := parse(string(featureBody(228, 16, 1))); !in.small() {
		t.Errorf("a 228-frame body's reader is not small: buf %d, vals %d, rowEnd %d", cap(in.buf), cap(in.vals), cap(in.rowEnd))
	}
	in := parse(`{"frames":[` + strings.Repeat("[0],", 200_000) + "[0]]}")
	if cap(in.buf) > maxPooledBuf || 8*cap(in.rowEnd) <= maxPooledBuf {
		t.Fatalf("fixture: buf %d bytes, rowEnd %d entries; want buf within %d bytes and rowEnd past it", cap(in.buf), cap(in.rowEnd), maxPooledBuf)
	}
	if in.small() {
		t.Errorf("reader with %d rowEnd and %d vals entries is small", cap(in.rowEnd), cap(in.vals))
	}
}

// TestFeatureReaderOneByteReads: a body that arrives one byte per Read cuts
// every number token short, so each goes through number's resume path. The
// results must still be encoding/json's, and every body here that
// encoding/json accepts must stay on the fast path.
func TestFeatureReaderOneByteReads(t *testing.T) {
	bodies := []string{string(featureBody(12, 16, 1))}
	for _, s := range scanEdges {
		bodies = append(bodies, `{"utterances":[{"frames":[[`+s+`],[2,`+s+`]]}]}`)
	}
	for _, body := range bodies {
		var want, got recognizeRequest
		werr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		in := newFeatureReader(iotest.OneByteReader(strings.NewReader(body)), 1<<30)
		gerr := in.recognize(&got)
		fast := in.dec == nil
		in.release()
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || werr == nil && !sameRecognize(&got, &want) {
			t.Errorf("%q one byte per Read: %+v, %v; json.Decoder %+v, %v", body, got, gerr, want, werr)
		}
		if fast != (werr == nil) {
			t.Errorf("%q one byte per Read: fast path %v, want %v", body, fast, werr == nil)
		}
	}
}

// TestFeatureReaderLongTokens: a number or a key that arrives one byte per
// Read costs time linear in its length, and decodes as encoding/json does.
// Searching the token again from its start after every read would cost
// about L²/2 byte steps, minutes for one token near MaxBodyBytes: ~70 s here
// for the 256 KiB numbers, and ~50 s for the 2 MiB key, whose search runs
// at memchr speed.
func TestFeatureReaderLongTokens(t *testing.T) {
	const L = 1 << 18
	for _, body := range []string{
		`{"frames":[[0.` + strings.Repeat("0", L) + `1,-` + strings.Repeat("7", L) + `e-262143]]}`,
		`{"` + strings.Repeat("a", 8*L) + `":1,"frames":[[1]]}`,
	} {
		start := time.Now()
		in := newFeatureReader(iotest.OneByteReader(strings.NewReader(body)), 1<<30)
		var got, want streamChunk
		err := in.chunk(&got)
		in.release()
		d := time.Since(start)
		wantErr := json.Unmarshal([]byte(body), &want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameChunk(&got, &want) {
			t.Errorf("%.20q…: got %v, %v; encoding/json %v, %v", body, got.Frames, err, want.Frames, wantErr)
		}
		t.Logf("%.12q…: %v for %d bytes, one per Read", body, d, len(body))
		if d > 10*time.Second {
			t.Errorf("%.12q…: %v for %d bytes read one at a time, want linear time (< 10s)", body, d, len(body))
		}
	}
}

// BenchmarkFeatureParse times the reader on a bench-shaped body (228 frames
// of 16 features, ~40 KB), the request-body parse of serve_mixed's server
// profile. Compare two builds with -cpu 1, alternating their binaries.
func BenchmarkFeatureParse(b *testing.B) {
	body := featureBody(228, 16, 1)
	src := bytes.NewReader(body)
	var req recognizeRequest
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(body)
		in := newFeatureReader(src, 1<<20)
		if err := in.recognize(&req); err != nil {
			b.Fatal(err)
		}
		in.release()
	}
}
