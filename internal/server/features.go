package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// featureReader parses the decode routes' bodies — the /v1/recognize object,
// or the /v1/stream NDJSON values one at a time — without reflection on the
// feature frames, which through encoding/json cost half the server's CPU.
//
// encoding/json stays the definition of the wire format. The fast path takes
// only the shape clients send: the exact lower-case keys, each at most once,
// and frames as arrays of arrays of strict JSON numbers. scanNumber checks
// and converts each number in one pass, to the bits strconv.ParseFloat(s, 32)
// gives, as encoding/json converts a float32: one exact float64 operation
// when the decimal is short, strconv itself otherwise. The other
// fields are skipped as raw bytes and handed to json.Unmarshal one at a time.
// At the first byte the fast path does not expect (another key case, an
// escape, a duplicate, null, a number float32 cannot hold, bad syntax, the
// body ending or failing mid-value) the value's bytes read so far plus the
// unread body go to a json.Decoder, which decodes that value and every later
// one. Every accepted body and every error string is encoding/json's.
//
// Each value's frames land in one fresh slab with row slices over it. It is
// never reused: pool workers and lanes may still read rows after a deadline
// has returned the handler. Only the reader's scratch is pooled.
type featureReader struct {
	src valueBudget
	// buf[mark:n] is every byte read since the previous value ended, so a
	// fallback can replay the current value; pos is the scan position.
	buf          []byte
	mark, pos, n int
	err          error // src's error, surfaced once buf[pos:n] is used up

	dec    *json.Decoder // the fallback; once set it owns the rest of the body
	replay *bytes.Reader

	// Scratch for the current value: its numbers, each row's end in vals,
	// each frames field's [lo, hi) rows, each utterance's frames field (-1:
	// none), and the [start, end) in buf[mark:] of each skipped field by key.
	vals    []float32
	rowEnd  []int
	sets    [][2]int
	utts    []int
	raw     [4][2]int
	hasUtts bool
}

// valueBudget caps the bytes one value may read, counted from the end of the
// previous one, as http.MaxBytesReader caps a whole body: a value that needs
// more fails, for good, with *http.MaxBytesError unless the body ends right
// at the cap. Both paths read only when the current value needs more bytes.
type valueBudget struct {
	r        io.Reader
	n, limit int64
	err      error
}

func (b *valueBudget) Read(p []byte) (int, error) {
	if b.err != nil || len(p) == 0 {
		return 0, b.err
	}
	if b.n > 0 {
		n, err := b.r.Read(p[:min(int64(len(p)), b.n)])
		b.n -= int64(n)
		return n, err
	}
	// One byte past the cap tells a body that ends here from one that goes on.
	if n, err := b.r.Read(p[:1]); n == 0 {
		return 0, err
	}
	b.err = &http.MaxBytesError{Limit: b.limit}
	return 0, b.err
}

// maxPooledBuf keeps one huge body from pinning its scratch in the pool: a
// reader goes back only if each scratch slice is at most this many bytes.
const maxPooledBuf = 1 << 20

var featureReaders = sync.Pool{New: func() any { return new(featureReader) }}

// Fast-path keys, indexed as raw and the field callbacks see them.
var (
	recognizeKeys = []string{"utterances", "timeout", "model", "bias"}
	chunkKeys     = []string{"frames", "model", "bias"}
	utteranceKeys = []string{"frames"}
)

// newFeatureReader reads JSON values of at most limit bytes each from body.
func newFeatureReader(body io.Reader, limit int64) *featureReader {
	r := featureReaders.Get().(*featureReader)
	r.src = valueBudget{r: body, n: limit, limit: limit}
	return r
}

// release returns the scratch to the pool; nothing decoded aliases it.
func (r *featureReader) release() {
	if r.small() {
		*r = featureReader{buf: r.buf, vals: r.vals[:0], rowEnd: r.rowEnd[:0], sets: r.sets[:0], utts: r.utts[:0]}
		featureReaders.Put(r)
	}
}

// small reports whether every scratch slice fits in maxPooledBuf bytes.
func (r *featureReader) small() bool {
	const word = strconv.IntSize / 8
	return max(cap(r.buf), 4*cap(r.vals), word*cap(r.rowEnd), 2*word*cap(r.sets), word*cap(r.utts)) <= maxPooledBuf
}

// recognize reads the next value as a /v1/recognize body.
func (r *featureReader) recognize(req *recognizeRequest) error {
	return r.decode(req, func() { *req = recognizeRequest{} }, func() bool {
		if !r.object(recognizeKeys, r.recognizeField) ||
			!r.unmarshalRaw(1, &req.Timeout) || !r.unmarshalRaw(2, &req.Model) || !r.unmarshalRaw(3, &req.Bias) {
			return false
		}
		if r.hasUtts {
			rows := r.rows()
			req.Utterances = make([]utteranceRequest, len(r.utts))
			for i, s := range r.utts {
				if s >= 0 {
					req.Utterances[i].Frames = rows[r.sets[s][0]:r.sets[s][1]:r.sets[s][1]]
				}
			}
		}
		return true
	})
}

// chunk reads the next value as a /v1/stream line; io.EOF ends the stream.
func (r *featureReader) chunk(c *streamChunk) error {
	return r.decode(c, func() { *c = streamChunk{} }, func() bool {
		if !r.object(chunkKeys, r.chunkField) || !r.unmarshalRaw(1, &c.Model) || !r.unmarshalRaw(2, &c.Bias) {
			return false
		}
		if len(r.sets) > 0 {
			c.Frames = r.rows()
		}
		return true
	})
}

// decode reads the next value into v: by fast, which fills v, or, from the
// first byte fast does not take, by encoding/json into a zeroed v.
func (r *featureReader) decode(v any, zero func(), fast func() bool) error {
	zero()
	if r.dec == nil {
		if err := r.begin(); err != nil || fast() {
			return err
		}
		zero()
	}
	return r.fallback(v)
}

func (r *featureReader) recognizeField(k int) bool {
	if k > 0 {
		return r.skipRaw(k)
	}
	r.hasUtts = true
	return r.array(func() bool {
		r.utts = append(r.utts, -1)
		return r.object(utteranceKeys, func(int) bool {
			r.utts[len(r.utts)-1] = len(r.sets)
			return r.frameRows()
		})
	})
}

func (r *featureReader) chunkField(k int) bool {
	if k > 0 {
		return r.skipRaw(k)
	}
	return r.frameRows()
}

// frameRows parses one frames value: an array of arrays of numbers.
func (r *featureReader) frameRows() bool {
	lo := len(r.rowEnd)
	ok := r.array(func() bool {
		if !r.array(r.number) {
			return false
		}
		r.rowEnd = append(r.rowEnd, len(r.vals))
		return true
	})
	r.sets = append(r.sets, [2]int{lo, len(r.rowEnd)})
	return ok
}

// rows copies the value's numbers into a fresh slab and cuts it into rows,
// each capacity-capped so no caller can append into its neighbour.
func (r *featureReader) rows() [][]float32 {
	slab := make([]float32, len(r.vals))
	copy(slab, r.vals)
	rows := make([][]float32, len(r.rowEnd))
	lo := 0
	for i, hi := range r.rowEnd {
		rows[i], lo = slab[lo:hi:hi], hi
	}
	return rows
}

// begin starts a value: budget and scratch reset, leading whitespace
// skipped. A body that ends or fails first returns that read error (io.EOF
// at a clean end), as json.Decoder does.
func (r *featureReader) begin() error {
	r.mark = r.pos
	r.src.n = r.src.limit - int64(r.n-r.mark)
	r.vals, r.rowEnd, r.sets, r.utts = r.vals[:0], r.rowEnd[:0], r.sets[:0], r.utts[:0]
	r.raw, r.hasUtts = [4][2]int{}, false
	if _, ok := r.peek(); !ok {
		return r.err
	}
	return nil
}

// fallback decodes the current value with encoding/json.
func (r *featureReader) fallback(v any) error {
	if r.dec == nil {
		r.replay = bytes.NewReader(r.buf[r.mark:r.n])
		r.dec = json.NewDecoder(io.MultiReader(r.replay, &r.src))
	}
	// What the decoder and the replay hold was read within this value's budget.
	buffered, _ := io.Copy(io.Discard, r.dec.Buffered())
	r.src.n = r.src.limit - int64(r.replay.Len()) - buffered
	return r.dec.Decode(v)
}

// more reads into buf, first sliding the current value to the front or
// growing buf when little room is left. It reports false once the body has
// ended or failed and every byte read is consumed.
func (r *featureReader) more() bool {
	const minRead = 512
	if r.err != nil {
		return false
	}
	if len(r.buf)-r.n < minRead {
		r.n = copy(r.buf, r.buf[r.mark:r.n])
		r.pos, r.mark = r.pos-r.mark, 0
		if len(r.buf)-r.n < minRead {
			grown := make([]byte, max(2*len(r.buf), 4096))
			copy(grown, r.buf[:r.n])
			r.buf = grown
		}
	}
	m, err := r.src.Read(r.buf[r.n:])
	r.n += m
	r.err = err
	return m > 0 || err == nil
}

// peek skips whitespace and returns the next byte, unconsumed.
func (r *featureReader) peek() (byte, bool) {
	for {
		for ; r.pos < r.n; r.pos++ {
			if c := r.buf[r.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return c, true
			}
		}
		if !r.more() {
			return 0, false
		}
	}
}

// eat consumes c if it is the next non-space byte.
func (r *featureReader) eat(c byte) bool {
	if b, ok := r.peek(); ok && b == c {
		r.pos++
		return true
	}
	return false
}

// array walks a JSON array, calling elem on each element.
func (r *featureReader) array(elem func() bool) bool {
	if !r.eat('[') {
		return false
	}
	if r.eat(']') {
		return true
	}
	for elem() {
		if !r.eat(',') {
			return r.eat(']')
		}
	}
	return false
}

// object walks a JSON object whose keys are all in keys, each at most once,
// calling field with the key's index and the cursor on its value.
func (r *featureReader) object(keys []string, field func(k int) bool) bool {
	if !r.eat('{') {
		return false
	}
	if r.eat('}') {
		return true
	}
	for seen := 0; ; {
		k := r.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !field(k) {
			return false
		}
		seen |= 1 << k
		if !r.eat(',') {
			return r.eat('}')
		}
	}
}

// key consumes `"name":` and returns name's index in keys, or -1. A name
// equal to a key has no escapes, so the first quote ends it.
func (r *featureReader) key(keys []string) int {
	if !r.eat('"') {
		return -1
	}
	end := bytes.IndexByte(r.buf[r.pos:r.n], '"')
	for off := 0; end < 0; { // no quote in buf[r.pos:][:off]
		off = r.n - r.pos
		if !r.more() {
			return -1
		}
		if end = bytes.IndexByte(r.buf[r.pos+off:r.n], '"'); end >= 0 {
			end += off
		}
	}
	name := r.buf[r.pos : r.pos+end]
	r.pos += end + 1
	for i, k := range keys {
		if string(name) == k && r.eat(':') {
			return i
		}
	}
	return -1
}

// number parses one strict JSON number into vals.
func (r *featureReader) number() bool {
	if _, ok := r.peek(); !ok {
		return false
	}
	f, n, st := scanNumber(r.buf[r.pos:r.n])
	if st == numMore {
		// The token goes on past the bytes read. Find its end first, resuming
		// after each read so a long token costs linear time, then scan it
		// once with the byte that ends it. more may slide buf under r.pos.
		for n = r.n - r.pos; ; n++ {
			for r.pos+n == r.n {
				if !r.more() {
					return false
				}
			}
			if !numberByte(r.buf[r.pos+n]) {
				break
			}
		}
		f, n, st = scanNumber(r.buf[r.pos : r.pos+n+1])
	}
	if st != numOK {
		return false
	}
	r.vals = append(r.vals, f)
	r.pos += n
	return true
}

// scanNumber's results.
const (
	numOK   = iota
	numBad  // not one strict JSON number float32 holds
	numMore // b ends inside the token
)

// pow10 holds the powers of ten that a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scanNumber converts the number token at the start of b, in one pass, to
// what strconv.ParseFloat(token, 32) returns, and reports the token's length.
// The token is the maximal run of [0-9+-.eE]; it must be exactly one
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? (RFC 8259), which
// ParseFloat alone would not check ("+1", ".5", "1.", "0x1p3", "inf").
//
// The walk builds a decimal m×10^exp. With m of at most 15 significant
// digits and |exp| <= 22, both m and 10^|exp| are exact float64s, so one
// multiply or divide gives the float64 nearest the decimal (Clinger's fast
// path); the window also keeps a nonzero result between 1e-22 and 1e37,
// inside float32's normal range. Rounding that float64 to float32 rounds the
// decimal itself unless the float64 is a float32 midpoint: every midpoint is
// a float64, so none lies strictly between the decimal and its nearest
// float64. Midpoints, longer mantissas and wider exponents go to strconv.
func scanNumber(b []byte) (float32, int, int) {
	i, neg := 0, false
	if i < len(b) && b[i] == '-' {
		i, neg = 1, true
	}
	var m uint64
	nd, exp := 0, 0 // significant digits; the exponent of m's last digit
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		start := i
		if i, m, nd = mantissa(b, i, m, nd); i == start {
			return notNumber(b, i)
		}
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		if i, m, nd = mantissa(b, start, m, nd); i == start {
			return notNumber(b, i)
		}
		exp = start - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || eneg) {
			i++
		}
		start, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1e4 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return notNumber(b, i)
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i == len(b) || numberByte(b[i]) {
		return notNumber(b, i)
	}
	if nd <= 15 && -22 <= exp && exp <= 22 {
		f := float64(m)
		if exp >= 0 {
			f *= pow10[exp]
		} else {
			f /= pow10[-exp]
		}
		if neg {
			f = -f
		}
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			return float32(f), i, numOK
		}
	}
	f, err := strconv.ParseFloat(string(b[:i]), 32)
	if err != nil {
		return 0, 0, numBad
	}
	return float32(f), i, numOK
}

// mantissa appends the digits at b[i:] to m and counts the significant ones
// (all but leading zeros) in nd, keeping m's first 19.
func mantissa(b []byte, i int, m uint64, nd int) (int, uint64, int) {
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if nd != 0 || b[i] != '0' {
			if nd < 19 { // m stays below 10^19 < 2^64
				m = m*10 + uint64(b[i]-'0')
			}
			nd++
		}
	}
	return i, m, nd
}

// notNumber is scanNumber's result when the walk stops at b[i]: numMore if
// b ended there, so the token may go on, else numBad.
func notNumber(b []byte, i int) (float32, int, int) {
	if i == len(b) {
		return 0, 0, numMore
	}
	return 0, 0, numBad
}

func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// skipRaw records key k's value up to the enclosing object's next ',' or
// '}' outside strings and brackets. unmarshalRaw validates it: a span that
// is not exactly one JSON value (plus whitespace) fails there.
func (r *featureReader) skipRaw(k int) bool {
	start, depth, inString, escaped := r.pos-r.mark, 0, false, false
	for {
		for ; r.pos < r.n; r.pos++ {
			switch c := r.buf[r.pos]; {
			case escaped:
				escaped = false
			case inString:
				escaped, inString = c == '\\', c != '"'
			case c == '"':
				inString = true
			case c == '{' || c == '[':
				depth++
			case depth == 0 && (c == ',' || c == '}' || c == ']'):
				r.raw[k] = [2]int{start, r.pos - r.mark}
				return true
			case c == '}' || c == ']':
				depth--
			}
		}
		if !r.more() {
			return false
		}
	}
}

// unmarshalRaw decodes key k's skipped value, if any, into v. On error the
// value goes to the fallback, whose message names the struct field.
func (r *featureReader) unmarshalRaw(k int, v any) bool {
	span := r.raw[k]
	return span[1] == 0 || json.Unmarshal(r.buf[r.mark+span[0]:r.mark+span[1]], v) == nil
}
