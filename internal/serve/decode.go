package serve

// Request-body decoding (DESIGN.md §10). Every /v1/predict,
// /v1/predict:batch and stream-append body is read once into a pooled
// buffer and decoded by one forward pass over the two canonical
// request shapes,
//
//	{"model":"…","values":[n,…]}        PredictRequest (predict, stream append)
//	{"model":"…","series":[[n,…],…]}    BatchRequest   (predict:batch)
//
// with each number checked against the JSON number grammar and parsed
// by strconv.ParseFloat(s, 64), exactly as encoding/json parses it.
// Any body outside that subset — a string with a backslash or a
// non-ASCII byte, a key other than the exact lower-case names, a
// repeated key, null, a malformed token, a number ParseFloat rejects —
// is declined and decoded by encoding/json over the same bytes, so it
// decodes or fails exactly as it would with encoding/json alone.
// Whenever the pass returns a value it is reflect.DeepEqual to
// encoding/json's (FuzzRequestDecode holds the two to that).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"rpm"
	serveclient "rpm/internal/serve/client"
)

// maxPooledBody is the largest body buffer returned to bodyPool. A
// larger one (a multi-megabyte batch) goes to the collector, so one big
// request does not pin its buffer for the life of the process. It
// holds a 128-series batch of 250-sample series in shortest-form JSON.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// decodeBody reads the request body under Config.MaxBodyBytes and
// decodes it into v, a *serveclient.PredictRequest or
// *serveclient.BatchRequest. A body over the cap is an
// *http.MaxBytesError (413); any other read or decode failure wraps
// rpm.ErrBadInput (400).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	bp := bodyPool.Get().(*[]byte)
	size := r.ContentLength
	if size > s.cfg.MaxBodyBytes {
		size = -1 // the read below fails at the cap; do not allocate for it
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), (*bp)[:0], size)
	if err == nil {
		if s.refDecode || !decodeCanonical(body, v) {
			if err = json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
				err = fmt.Errorf("%w: decoding request: %v", rpm.ErrBadInput, err)
			}
		}
	} else {
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			err = fmt.Errorf("%w: reading request: %v", rpm.ErrBadInput, err)
		}
	}
	if cap(body) <= maxPooledBody {
		*bp = body[:0]
		bodyPool.Put(bp)
	}
	return err
}

// readBody appends all of r to buf and returns it. A size ≥ 0 (the
// request's Content-Length) sizes the buffer up front, with one spare
// byte for the read that sees EOF, but never past maxPooledBody: the
// header is only the client's claim, and a larger body grows the
// buffer as its bytes arrive, so a client that claims 8 MiB and sends
// nothing holds at most maxPooledBody.
func readBody(r io.Reader, buf []byte, size int64) ([]byte, error) {
	if size >= maxPooledBody {
		size = maxPooledBody - 1
	}
	if size >= 0 && int64(cap(buf)) < size+1 {
		buf = make([]byte, 0, size+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF { // io.Reader's contract returns EOF bare
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeCanonical decodes body into v when body is one of the canonical
// request shapes, and reports whether it did. It writes v only on
// success, so a declined body leaves v as it was for encoding/json.
// No decoded value aliases body.
func decodeCanonical(body []byte, v any) bool {
	p := reqScanner{b: body}
	switch v := v.(type) {
	case *serveclient.PredictRequest:
		var req serveclient.PredictRequest
		if p.request(&req.Model, &req.Values, nil) {
			*v = req
			return true
		}
	case *serveclient.BatchRequest:
		var req serveclient.BatchRequest
		if p.request(&req.Model, nil, &req.Series) {
			*v = req
			return true
		}
	}
	return false
}

// reqScanner is the forward pass over one request body: b[i:] is what
// is left to read. Every method returns false when the input leaves
// the canonical subset, and the caller then declines the whole body.
type reqScanner struct {
	b []byte
	i int
}

// request reads one top-level object whose keys are "model" and either
// "values" (values non-nil) or "series" (series non-nil), each at most
// once; bytes after the object are ignored, as json.Decoder.Decode
// ignores them.
func (p *reqScanner) request(model *string, values *[]float64, series *[][]float64) bool {
	if p.next() != '{' {
		return false
	}
	p.i++
	if p.next() == '}' {
		return true
	}
	var haveModel, haveData bool
	for {
		key, ok := p.str()
		if !ok || p.next() != ':' {
			return false
		}
		p.i++
		switch {
		case string(key) == "model" && !haveModel:
			name, ok := p.str()
			if !ok {
				return false
			}
			*model, haveModel = string(name), true
		case string(key) == "values" && values != nil && !haveData:
			if *values, ok = p.floats(); !ok {
				return false
			}
			haveData = true
		case string(key) == "series" && series != nil && !haveData:
			if *series, ok = p.series(); !ok {
				return false
			}
			haveData = true
		default:
			return false
		}
		switch p.next() {
		case ',':
			p.i++
		case '}':
			p.i++
			return true
		default:
			return false
		}
	}
}

// next skips JSON whitespace and returns the next byte (0 at the end).
func (p *reqScanner) next() byte {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// str reads a string of printable ASCII without escapes and returns
// its contents, which alias b.
func (p *reqScanner) str() ([]byte, bool) {
	if p.next() != '"' {
		return nil, false
	}
	start := p.i + 1
	for j := start; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			p.i = j + 1
			return p.b[start:j], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// floats reads a flat array of numbers into a slice allocated once at
// its exact length; [] gives a non-nil empty slice, as encoding/json
// does. The length is the comma count plus one, bounded by what the
// bytes up to ']' can hold (one digit per element), so a comma flood
// allocates no more than a valid array of its size.
func (p *reqScanner) floats() ([]float64, bool) {
	if p.next() != '[' {
		return nil, false
	}
	p.i++
	if p.next() == ']' {
		p.i++
		return make([]float64, 0), true
	}
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end < 0 {
		return nil, false
	}
	out := make([]float64, min(bytes.Count(p.b[p.i:p.i+end], []byte{','})+1, (end+1)/2))
	for k := range out {
		if k > 0 {
			if p.next() != ',' {
				return nil, false
			}
			p.i++
		}
		f, ok := p.number()
		if !ok {
			return nil, false
		}
		out[k] = f
	}
	if p.next() != ']' {
		return nil, false
	}
	p.i++
	return out, true
}

// series reads an array of flat number arrays.
func (p *reqScanner) series() ([][]float64, bool) {
	if p.next() != '[' {
		return nil, false
	}
	p.i++
	if p.next() == ']' {
		p.i++
		return make([][]float64, 0), true
	}
	var out [][]float64
	for {
		v, ok := p.floats()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		switch p.next() {
		case ',':
			p.i++
		case ']':
			p.i++
			return out, true
		default:
			return nil, false
		}
	}
}

// number reads one number in the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and parses it with
// strconv.ParseFloat(s, 64), as encoding/json does for a float64; a
// number ParseFloat rejects (out of range) declines the body.
func (p *reqScanner) number() (float64, bool) {
	p.next()
	b, i := p.b, p.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return 0, false
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, false
		}
		i = digits(b, i)
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return f, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
