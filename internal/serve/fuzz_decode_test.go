package serve

// FuzzRequestDecode is the differential target for the canonical
// request decoder (decode.go) against encoding/json, its reference.
// For arbitrary bytes and both request types, decodeCanonical either
// declines or returns exactly (reflect.DeepEqual) what
// json.Decoder.Decode returns; and through the handlers, a server that
// uses it answers with the status and error code of a server that
// decodes with encoding/json alone. Wired into `make fuzz`.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	serveclient "rpm/internal/serve/client"
)

// canonicalSeeds are json.Marshal'ed requests of random series with
// the values that round-trip at the edges of float64: ±0, the smallest
// subnormal, values near the largest finite, integers. The canonical
// pass must accept every one of them.
func canonicalSeeds() []string {
	rng := rand.New(rand.NewSource(1))
	edge := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e308, -1e308,
		math.MaxFloat64, 1, -7, 42, 1 << 53, 123456789}
	series := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(3) == 0 {
				v[i] = edge[rng.Intn(len(edge))]
			} else {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
		return v
	}
	var out []string
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		out = append(out, string(b))
	}
	for _, n := range []int{0, 1, 3, 40, 128} {
		add(serveclient.PredictRequest{Model: "cbf", Values: series(n)})
		add(serveclient.PredictRequest{Values: series(n)})
	}
	for _, k := range []int{1, 2, 5} {
		b := serveclient.BatchRequest{Model: "cbf"}
		for i := 0; i < k; i++ {
			b.Series = append(b.Series, series(1+rng.Intn(130)))
		}
		add(b)
	}
	add(serveclient.BatchRequest{Series: [][]float64{{}, {1}}})
	return append(out,
		` { "values" : [ 1 , -0 , 2.5e-3 ] , "model" : "cbf" } `,
		"{\"series\":[[1,2]\n,\t[3]],\r\"model\":\"\"}",
		`{"values":[]}`, `{"series":[]}`, `{}`,
		`{"values":[1]} trailing`,
	)
}

// declinedSeeds are bodies outside the canonical subset: the pass must
// hand each to encoding/json.
var declinedSeeds = []string{
	`{"Values":[1]}`,
	`{"values":[1],"values":[2]}`,
	`{"model":"é","values":[1]}`,
	`{"model":"a\"b","values":[1]}`,
	`{"values":[1e400]}`,
	`{"values":[01]}`,
	`{"values":[1.]}`,
	`{"values":[.5]}`,
	`{"values":[+1]}`,
	`{"values":[NaN]}`,
	`{"values":null}`,
	`{"values":[1],"extra":2}`,
	`{"series":[[1]]}`,
	`{"values":[1,2`,
	`{"values":[,,,,,,,,,,,,,,,,]}`,
	`{"values":[1,,,,,,,,,,,,,,,]}`,
	``,
}

func FuzzRequestDecode(f *testing.F) {
	for _, s := range predictRequestSeeds() {
		f.Add([]byte(s))
	}
	for _, s := range canonicalSeeds() {
		f.Add([]byte(s))
	}
	for _, s := range declinedSeeds {
		f.Add([]byte(s))
	}

	// Two servers over the same model, identical but for the decoder:
	// ref decodes every body with encoding/json alone. The tight body
	// cap makes the 413 path reachable from small inputs.
	fixtures(f)
	dir := f.TempDir()
	writeModel(f, dir, "cbf", model1)
	cfg := Config{ModelDir: dir, Workers: 1, MaxBodyBytes: 1 << 14}
	fast, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	ref.refDecode = true

	serve := func(s *Server, path string, data []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, &serveclient.PredictRequest{}, &serveclient.PredictRequest{})
		checkDecode(t, data, &serveclient.BatchRequest{}, &serveclient.BatchRequest{})
		for _, path := range []string{"/v1/predict", "/v1/predict:batch"} {
			got, want := serve(fast, path, data), serve(ref, path, data)
			if got.Code != want.Code || envelopeCode(got) != envelopeCode(want) {
				t.Fatalf("%s %q: canonical decoder answers %d %s, encoding/json %d %s",
					path, data, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
			}
		}
	})
}

// envelopeCode is the error envelope's code of a non-2xx response, ""
// for a success. Labels are not compared: checkDecode already holds the
// decoded values equal, and Predict on a series whose magnitudes
// overflow its normalization is not repeatable.
func envelopeCode(rec *httptest.ResponseRecorder) string {
	var env serveclient.ErrorEnvelope
	if rec.Code/100 != 2 && json.Unmarshal(rec.Body.Bytes(), &env) == nil {
		return env.Error.Code
	}
	return ""
}

// checkDecode requires decodeCanonical(data, got) to decline or to
// match json.Decoder.Decode(want) exactly.
func checkDecode(t *testing.T, data []byte, got, want any) bool {
	t.Helper()
	if !decodeCanonical(data, got) {
		return false
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(want); err != nil {
		t.Fatalf("%q: canonical decoder accepted what encoding/json rejects: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: canonical decoder gives %#v, encoding/json %#v", data, got, want)
	}
	return true
}

// TestDecodeCanonicalSubset pins which bodies take the canonical pass:
// every canonical seed is accepted (for its own request type) with
// encoding/json's value, bit for bit, and every declined seed is handed
// to encoding/json untouched.
func TestDecodeCanonicalSubset(t *testing.T) {
	for _, s := range canonicalSeeds() {
		var ok bool
		if strings.Contains(s, `"series"`) {
			ok = checkDecode(t, []byte(s), &serveclient.BatchRequest{}, &serveclient.BatchRequest{})
		} else {
			ok = checkDecode(t, []byte(s), &serveclient.PredictRequest{}, &serveclient.PredictRequest{})
		}
		if !ok {
			t.Errorf("canonical body declined: %.80q", s)
		}
	}
	var neg serveclient.PredictRequest
	if !decodeCanonical([]byte(`{"values":[-0,5e-324,1e308]}`), &neg) ||
		!math.Signbit(neg.Values[0]) || neg.Values[1] != 5e-324 || neg.Values[2] != 1e308 {
		t.Errorf("edge values did not round-trip: %v", neg.Values)
	}
	for _, s := range declinedSeeds {
		req := serveclient.PredictRequest{Model: "kept"}
		if decodeCanonical([]byte(s), &req) {
			t.Errorf("body outside the canonical subset accepted: %q", s)
		}
		if req.Model != "kept" || req.Values != nil {
			t.Errorf("declined body %q wrote the request: %+v", s, req)
		}
	}
}

// TestDecodeNoAlias: a decoded value never points into the pooled body
// buffer, so reusing the buffer cannot change a request already
// decoded from it.
func TestDecodeNoAlias(t *testing.T) {
	body := []byte(`{"model":"cbf","values":[1,2]}`)
	var req serveclient.PredictRequest
	if !decodeCanonical(body, &req) {
		t.Fatal("canonical body declined")
	}
	for i := range body {
		body[i] = 'x'
	}
	if req.Model != "cbf" || req.Values[0] != 1 || req.Values[1] != 2 {
		t.Fatalf("decoded request changed with its buffer: %+v", req)
	}
}

// TestBodyOverCapIs413: a body over MaxBodyBytes is 413 even when its
// first JSON value ends well inside the cap (the streaming decoder
// used to answer such a body 200), and a body at the cap is decoded.
func TestBodyOverCapIs413(t *testing.T) {
	const limit = 256
	_, ts, _ := newTestServer(t, func(c *Config) { c.MaxBodyBytes = limit })
	head := `{"model":"ghost","values":[1]}`
	over := head + strings.Repeat(" ", limit-len(head)+1)
	resp, body := postJSON(t, ts.URL+"/v1/predict", over)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errCode(t, resp.StatusCode, body) != "too_large" {
		t.Fatalf("over-cap body: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", over[:limit])
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("body at the cap: status %d, want 404 for the unknown model: %s", resp.StatusCode, body)
	}
}

// TestDecodeBodyClaimedLength: Content-Length is only the client's
// claim, so a request that claims a body near MaxBodyBytes and sends a
// short one does not make decodeBody allocate the claimed size, and a
// body truly larger than the up-front buffer still decodes whole.
func TestDecodeBodyClaimedLength(t *testing.T) {
	const claim = 8 << 20
	s := &Server{cfg: Config{MaxBodyBytes: claim}}
	decode := func(body string, length int64) serveclient.PredictRequest {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		req.ContentLength = length
		var v serveclient.PredictRequest
		if err := s.decodeBody(httptest.NewRecorder(), req, &v); err != nil {
			t.Fatalf("decodeBody: %v", err)
		}
		return v
	}

	const calls = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if v := decode(`{"model":"cbf","values":[1]}`, claim); v.Model != "cbf" || len(v.Values) != 1 {
			t.Fatalf("short body decoded as %+v", v)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= calls*2*maxPooledBody {
		t.Fatalf("%d requests claiming %d bytes allocated %d bytes; want under %d",
			calls, claim, got, calls*2*maxPooledBody)
	}

	n := 2 * maxPooledBody / len("1,")
	big := `{"values":[` + strings.Repeat("1,", n-1) + `1]}`
	if v := decode(big, int64(len(big))); len(v.Values) != n {
		t.Fatalf("%d-byte body decoded %d values, want %d", len(big), len(v.Values), n)
	}
}
