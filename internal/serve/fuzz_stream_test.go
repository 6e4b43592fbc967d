package serve

// FuzzStreamAppend fuzzes the chunked-append boundary of
// POST /v1/streams/{id} (ISSUE 8 satellite 3) with arbitrary bodies,
// ids, and an interleaved delete. The contract under fuzz mirrors the
// predict fuzz target: the server never panics and never answers 500 —
// every hostile chunk maps to a typed envelope from the taxonomy
// (bad_input 400, too_large 413, not_found 404, overloaded 429,
// no_models 503) — and a delete between appends never corrupts the
// registry. Wired into `make fuzz`.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	serveclient "rpm/internal/serve/client"
)

func FuzzStreamAppend(f *testing.F) {
	// Seeds: valid appends, then the broken shapes — empty/oversized
	// chunks, non-finite floats (JSON rejects them at decode), wrong
	// types, cut-off JSON, model floods, null floods.
	seeds := []string{
		`{"model":"cbf","values":[1,2,3]}`,
		`{"values":[0.5,-0.5,0.25]}`,
		`{"model":"ghost","values":[1]}`,
		`{"values":[]}`,
		`{"values":[1e999]}`,
		`{"values":[null]}`,
		`{"values":["NaN"]}`,
		`{"values":{"a":1}}`,
		`{"model":123,"values":[1]}`,
		`{"model":"cbf","values":[1,2`,
		`{}`,
		``,
		`null`,
		`{"values":[` + strings.Repeat("1,", 200) + `1]}`,
		`{"model":"` + strings.Repeat("m", 1<<12) + `","values":[1]}`,
		"\x00\x01\x02",
	}
	for _, s := range seeds {
		f.Add([]byte(s), "s1", false)
	}
	f.Add([]byte(`{"values":[1,2,3]}`), "", false)
	f.Add([]byte(`{"values":[1,2,3]}`), "s/../x", true)
	f.Add([]byte(`{"values":[4,5]}`), "s1", true)

	// One server per fuzz process over an empty model dir (no model
	// training per worker; every create resolves to no_models 503, and
	// the decode/validate path before resolution is fully exercised).
	// Tight chunk and stream caps make the 413 and 429 branches
	// reachable from small inputs. Requests run in-process for
	// throughput, exactly like FuzzPredictRequest.
	s, err := New(Config{ModelDir: f.TempDir(), Workers: 1,
		MaxBodyBytes: 1 << 14, MaxStreamChunk: 64, MaxStreams: 4})
	if err != nil {
		f.Fatal(err)
	}
	handler := s.Handler()

	do := func(t *testing.T, method, path string, data []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s %s: arbitrary input produced a 500: %q → %s", method, path, data, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			var env serveclient.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s %s: status %d body is not the error envelope: %q → %s",
					method, path, rec.Code, data, rec.Body.Bytes())
			}
			if env.Error.Code == "" || env.Error.Status != rec.Code {
				t.Fatalf("%s %s: malformed envelope for %q: code=%q envStatus=%d httpStatus=%d",
					method, path, data, env.Error.Code, env.Error.Status, rec.Code)
			}
		}
		return rec
	}

	f.Fuzz(func(t *testing.T, data []byte, id string, del bool) {
		// The fuzz id drives registry key diversity, not URL parsing:
		// normalise it to one URL-safe path segment (spaces, slashes,
		// '?', '#', '%' and control bytes would otherwise break the
		// request constructor or the mux before the handler runs).
		id = strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
				return r
			default:
				return '_'
			}
		}, id)
		if id == "" || id == "." || id == ".." {
			id = "s"
		}
		path := "/v1/streams/" + id
		do(t, http.MethodPost, path, data)
		if del {
			do(t, http.MethodDelete, path, nil)
		}
		do(t, http.MethodPost, path, data)
		do(t, http.MethodGet, "/v1/streams", nil)
	})
}
