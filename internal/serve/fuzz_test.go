package serve

// FuzzPredictRequest fuzzes the JSON decode + validation boundary of
// /v1/predict and /v1/predict:batch with arbitrary bytes. The contract
// under fuzz: the server never panics and never answers 500 — every
// malformed, hostile, or merely weird body maps to a typed error
// envelope from the PR-2 taxonomy (bad_input 400, too_large 413,
// too_short 422, not_found 404, no_models 503, deadline_exceeded
// 504, ...), and every non-2xx body parses as that envelope. Wired into
// `make fuzz`.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	serveclient "rpm/internal/serve/client"
)

// predictRequestSeeds are FuzzPredictRequest's seeds, which
// FuzzRequestDecode shares: the valid shapes, then progressively broken
// ones — cut-off JSON, wrong types, non-finite floats, deep nesting,
// huge values, duplicate keys, null floods.
func predictRequestSeeds() []string {
	return []string{
		`{"model":"cbf","values":[1,2,3]}`,
		`{"values":[0.5,-0.5,0.25]}`,
		`{"model":"ghost","values":[1]}`,
		`{"series":[[1,2],[3,4]]}`,
		`{"model":"cbf","series":[[1,2,3]]}`,
		`{"values":[]}`,
		`{"series":[]}`,
		`{"values":[1e308,1e308]}`,
		`{"values":["NaN"]}`,
		`{"values":[null]}`,
		`{"values":{"a":1}}`,
		`{"model":123,"values":[1]}`,
		`{"model":"cbf","values":[1,2`,
		`{}`,
		``,
		`[]`,
		`null`,
		`"values"`,
		`{"model":"` + strings.Repeat("x", 1<<12) + `","values":[1]}`,
		`{"values":[` + strings.Repeat("1,", 1<<10) + `1]}`,
		strings.Repeat(`{"values":`, 64) + `1` + strings.Repeat(`}`, 64),
		`{"model":"cbf","model":"other","values":[1],"values":[2]}`,
		"\x00\x01\x02",
		`{"values":[1,2,3],"extra":{"deep":[[[[[1]]]]]}}`,
	}
}

func FuzzPredictRequest(f *testing.F) {
	for _, s := range predictRequestSeeds() {
		f.Add([]byte(s))
	}

	// One server per fuzz process, over an EMPTY model dir: the decode
	// and validation path is fully exercised without paying model
	// training per worker, and the empty catalog adds the no_models
	// branch to the reachable surface. A tight body cap makes the
	// too_large branch reachable from small fuzz inputs. Requests are
	// driven in-process (ResponseRecorder, no sockets) so the fuzz
	// engine gets tens of thousands of execs per second instead of
	// being throttled by HTTP round trips; a handler panic still fails
	// the run — the guard converts it to the 500 asserted against
	// below, and a re-panicked abort would crash the worker.
	s, err := New(Config{ModelDir: f.TempDir(), Workers: 1, MaxBodyBytes: 1 << 14})
	if err != nil {
		f.Fatal(err)
	}
	handler := s.Handler()

	check := func(t *testing.T, path string, data []byte) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s: arbitrary input produced a 500: %q → %s", path, data, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK {
			return
		}
		var env serveclient.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: status %d body is not the error envelope: %q → %s", path, rec.Code, data, rec.Body.Bytes())
		}
		if env.Error.Code == "" || env.Error.Status != rec.Code {
			t.Fatalf("%s: malformed envelope for %q: code=%q envStatus=%d httpStatus=%d",
				path, data, env.Error.Code, env.Error.Status, rec.Code)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, "/v1/predict", data)
		check(t, "/v1/predict:batch", data)
	})
}
