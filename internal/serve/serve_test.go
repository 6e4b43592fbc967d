package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rpm"
	"rpm/internal/obs"
	serveclient "rpm/internal/serve/client"
)

// ---------------------------------------------------------------------------
// Fixtures: two distinct trained models (cheap fixed-parameter training),
// built once per test binary.

var (
	fixOnce  sync.Once
	fixErr   error
	model1   []byte // snapshot bytes, SynCBF seed 1
	model2   []byte // snapshot bytes, SynCBF seed 2 (different content)
	fixClf1  *rpm.Classifier
	fixClf2  *rpm.Classifier
	fixProbe rpm.Dataset // queries for byte-identity checks
)

func fixtures(t testing.TB) {
	t.Helper()
	fixOnce.Do(func() {
		opts := rpm.DefaultOptions()
		opts.Mode = rpm.ParamFixed
		opts.Params = rpm.SAXParams{Window: 40, PAA: 6, Alphabet: 4}
		opts.Workers = 1
		train := func(seed int64) (*rpm.Classifier, []byte, error) {
			split := rpm.GenerateDataset("SynCBF", seed)
			clf, err := rpm.Train(split.Train, opts)
			if err != nil {
				return nil, nil, err
			}
			var buf bytes.Buffer
			if err := clf.Save(&buf); err != nil {
				return nil, nil, err
			}
			return clf, buf.Bytes(), nil
		}
		if fixClf1, model1, fixErr = train(1); fixErr != nil {
			return
		}
		if fixClf2, model2, fixErr = train(2); fixErr != nil {
			return
		}
		fixProbe = rpm.GenerateDataset("SynCBF", 1).Test[:12]
		if bytes.Equal(model1, model2) {
			fixErr = fmt.Errorf("fixture models are identical; hot-reload tests need distinct content")
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
}

// writeModel writes snapshot bytes as <dir>/<name>.json.
func writeModel(t testing.TB, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// newTestServer builds a Server over a fresh model dir holding model1
// under "cbf" (unless the mutator changes cfg.ModelDir) plus an
// httptest front end. Close order on cleanup mirrors production:
// http server first, then drain.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server, string) {
	t.Helper()
	fixtures(t)
	dir := t.TempDir()
	writeModel(t, dir, "cbf", model1)
	cfg := Config{ModelDir: dir, Workers: 1}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts, dir
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func predictBody(model string, values []float64) string {
	b, _ := json.Marshal(serveclient.PredictRequest{Model: model, Values: values})
	return string(b)
}

// ---------------------------------------------------------------------------
// Happy path + byte identity

// TestPredictHappyPath: /v1/predict answers every probe query with
// exactly the label the in-process Classifier.Predict produces, the
// envelope names the model and version that served it, and each
// computed request is accounted as one task of the predict pool.
func TestPredictHappyPath(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	for i, in := range fixProbe {
		resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("", in.Values))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out serveclient.PredictResult
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if want := fixClf1.Predict(in.Values); out.Label != want {
			t.Fatalf("probe %d: served label %d != direct Predict %d", i, out.Label, want)
		}
		if out.Model != "cbf" || out.Version != 1 {
			t.Fatalf("probe %d: model/version = %q/%d", i, out.Model, out.Version)
		}
	}
	snap := s.reg.Snapshot()
	n := int64(len(fixProbe))
	if b, items := snap.Counter(CtrBatches), snap.Counter(CtrBatchItems); b != n || items != n {
		t.Fatalf("tasks/items = %d/%d, want %d/%d (one task per computed request)", b, items, n, n)
	}
	if p := snap.Summary(SumLatencyPredict); p == nil || p.Count != n {
		t.Fatalf("predict latency summary = %+v", p)
	}
	var pool *obs.PoolSnapshot
	for i := range snap.Pools {
		if snap.Pools[i].Name == PoolBatch {
			pool = &snap.Pools[i]
		}
	}
	if pool == nil || pool.Tasks != n || pool.BusyNS <= 0 {
		t.Fatalf("predict pool = %+v, want %d tasks with busy time", pool, n)
	}
	if len(s.admit) != 0 {
		t.Fatalf("%d admission slots still held after every request answered", len(s.admit))
	}
}

// TestPredictBatchEndpoint: /v1/predict:batch answers with the same
// labels as direct PredictBatch, outside /v1/predict's admission and
// task accounting.
func TestPredictBatchEndpoint(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	series := make([][]float64, len(fixProbe))
	for i, in := range fixProbe {
		series[i] = in.Values
	}
	req, _ := json.Marshal(serveclient.BatchRequest{Series: series})
	resp, body := postJSON(t, ts.URL+"/v1/predict:batch", string(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out serveclient.BatchResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	want := fixClf1.PredictBatch(fixProbe)
	if len(out.Labels) != len(want) {
		t.Fatalf("got %d labels, want %d", len(out.Labels), len(want))
	}
	for i := range want {
		if out.Labels[i] != want[i] {
			t.Fatalf("label %d: served %d != direct %d", i, out.Labels[i], want[i])
		}
	}
	snap := s.reg.Snapshot()
	if snap.Counter(CtrRequestsBatch) != 1 {
		t.Fatalf("batch request counter = %d", snap.Counter(CtrRequestsBatch))
	}
	if snap.Counter(CtrBatches) != 0 {
		t.Fatalf("the batch endpoint must not count as /v1/predict tasks, saw %d", snap.Counter(CtrBatches))
	}
	if sum := snap.Summary(SumLatencyBatch); sum == nil || sum.Count != 1 {
		t.Fatalf("batch latency summary = %+v", sum)
	}
}

// ---------------------------------------------------------------------------
// Error mapping

// TestErrorMapping drives the PR-2 error taxonomy through the HTTP
// boundary: every failure mode maps to its documented status and stable
// envelope code.
func TestErrorMapping(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *Config) {
		c.MaxBodyBytes = 2048
	})
	huge := predictBody("", make([]float64, 4096))
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"malformed JSON", "/v1/predict", "{not json", http.StatusBadRequest, "bad_input"},
		{"empty values", "/v1/predict", `{"values":[]}`, http.StatusUnprocessableEntity, "too_short"},
		{"missing values", "/v1/predict", `{"model":"cbf"}`, http.StatusUnprocessableEntity, "too_short"},
		{"unknown model", "/v1/predict", predictBody("nope", []float64{1, 2, 3}), http.StatusNotFound, "not_found"},
		{"oversize body", "/v1/predict", huge, http.StatusRequestEntityTooLarge, "too_large"},
		{"batch empty set", "/v1/predict:batch", `{"series":[]}`, http.StatusBadRequest, "bad_input"},
		{"batch bad member", "/v1/predict:batch", `{"series":[[1,2,3],[]]}`, http.StatusUnprocessableEntity, "too_short"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+c.path, c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, c.status, body)
			}
			var env serveclient.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("non-envelope error body %q: %v", body, err)
			}
			if env.Error.Code != c.code || env.Error.Status != c.status || env.Error.Message == "" {
				t.Fatalf("envelope = %+v, want code %q status %d", env.Error, c.code, c.status)
			}
		})
	}
	// The batch-member error names the offending index.
	_, body := postJSON(t, ts.URL+"/v1/predict:batch", `{"series":[[1,2,3],[]]}`)
	if !strings.Contains(string(body), "series 1") {
		t.Fatalf("batch member error should name the index: %s", body)
	}
}

// TestNoModels: a server over an empty (or all-corrupt) directory comes
// up, reports unready, and answers predictions with 503.
func TestNoModels(t *testing.T) {
	fixtures(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{ModelDir: dir})
	if err != nil {
		t.Fatalf("corrupt-only dir must not fail construction: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close(context.Background())
	if s.Store().Len() != 0 {
		t.Fatalf("store has %d models", s.Store().Len())
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503", resp.StatusCode)
	}
	resp2, body := postJSON(t, ts.URL+"/v1/predict", predictBody("", []float64{1, 2, 3}))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict with no models = %d: %s", resp2.StatusCode, body)
	}
	// Liveness is independent of readiness.
	if resp3, err := http.Get(ts.URL + "/healthz"); err != nil || resp3.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v, %v", resp3, err)
	} else {
		resp3.Body.Close()
	}
}

// ---------------------------------------------------------------------------
// Load shedding

// TestShed429: with every admission slot taken, the next request is
// shed with 429 + Retry-After, and it is served again once a slot frees.
func TestShed429(t *testing.T) {
	s, ts, _ := newTestServer(t, func(c *Config) { c.QueueSize = 1 })
	s.admit <- struct{}{} // the one slot is held
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("", fixProbe[1].Values))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 must carry Retry-After")
	}
	var env serveclient.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "overloaded" {
		t.Fatalf("shed envelope = %s (%v)", body, err)
	}
	<-s.admit // the slot frees
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictBody("", fixProbe[1].Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the slot freed = %d: %s", resp.StatusCode, body)
	}
	if shed := s.reg.Snapshot().Counter(CtrShed); shed != 1 {
		t.Fatalf("shed counter = %d, want 1", shed)
	}
}

// gatePredicts holds every admitted /v1/predict of s at a test gate
// (see Server.predictGate) and returns the gate: each receive yields
// one held request's release channel. Once the test ends the gate lets
// every further request through, so a failed check does not leave
// handlers parked at it while cleanup waits for them.
func gatePredicts(t *testing.T, s *Server) chan chan struct{} {
	gate := make(chan chan struct{})
	s.predictGate = gate
	t.Cleanup(func() {
		go func() {
			for release := range gate {
				close(release)
			}
		}()
	})
	return gate
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// ---------------------------------------------------------------------------
// Hot reload

// TestHotReload covers the registry swap semantics end to end: a changed
// snapshot bumps the version and swaps predictions atomically; a corrupt
// overwrite is rejected while the previous version keeps serving; an
// unchanged file keeps its version.
func TestHotReload(t *testing.T) {
	s, ts, dir := newTestServer(t, nil)
	probe := fixProbe[0].Values

	version := func() int {
		resp, body := postJSON(t, ts.URL+"/admin/reload", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload: %d %s", resp.StatusCode, body)
		}
		var rep ReloadReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		m, err := s.Store().Get("cbf")
		if err != nil {
			t.Fatal(err)
		}
		return m.Version
	}
	serveLabel := func() int {
		resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", probe))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict: %d %s", resp.StatusCode, body)
		}
		var out serveclient.PredictResult
		json.Unmarshal(body, &out)
		return out.Label
	}

	if got, want := serveLabel(), fixClf1.Predict(probe); got != want {
		t.Fatalf("v1 label %d != %d", got, want)
	}
	// Unchanged file: version stays 1.
	if v := version(); v != 1 {
		t.Fatalf("no-op reload bumped version to %d", v)
	}
	// Swap in model2: version 2, predictions follow the new model.
	writeModel(t, dir, "cbf", model2)
	if v := version(); v != 2 {
		t.Fatalf("changed snapshot gave version %d, want 2", v)
	}
	if got, want := serveLabel(), fixClf2.Predict(probe); got != want {
		t.Fatalf("v2 label %d != direct new-model label %d", got, want)
	}
	// Corrupt overwrite: rejected, v2 keeps serving.
	writeModel(t, dir, "cbf", []byte(`{"version":1,"patterns":[{"class":0,"values":[1,2]}]}`))
	resp, body := postJSON(t, ts.URL+"/admin/reload", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload with corrupt file: %d %s", resp.StatusCode, body)
	}
	var rep ReloadReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.KeptOld) != 1 || rep.KeptOld[0].Name != "cbf" || rep.KeptOld[0].Err == "" {
		t.Fatalf("corrupt reload report = %+v", rep)
	}
	m, _ := s.Store().Get("cbf")
	if m.Version != 2 {
		t.Fatalf("corrupt reload changed the serving version to %d", m.Version)
	}
	if got, want := serveLabel(), fixClf2.Predict(probe); got != want {
		t.Fatalf("after corrupt reload label %d != old model's %d: old model must keep serving", got, want)
	}
	if rej := s.reg.Snapshot().Counter(CtrReloadRejected); rej < 1 {
		t.Fatalf("rejected counter = %d", rej)
	}
}

// TestHotReloadInFlight: a reload that lands while a request is held
// between admission and model resolution neither drops nor corrupts it
// — the request resolves the newest model and answers with it.
func TestHotReloadInFlight(t *testing.T) {
	s, ts, dir := newTestServer(t, func(c *Config) { c.RequestTimeout = 10 * time.Second })
	gate := gatePredicts(t, s)
	done := make(chan serveclient.PredictResult, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
		var out serveclient.PredictResult
		json.Unmarshal(body, &out)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("in-flight request failed: %d %s", resp.StatusCode, body)
		}
		done <- out
	}()
	release := <-gate // the request is admitted and stalled at the gate
	// Swap the model while the request sits at the gate.
	writeModel(t, dir, "cbf", model2)
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	close(release) // the request resolves the freshly swapped model
	out := <-done
	if out.Version != 2 {
		t.Fatalf("in-flight request served by version %d, want the hot-swapped 2", out.Version)
	}
	if want := fixClf2.Predict(fixProbe[0].Values); out.Label != want {
		t.Fatalf("in-flight label %d != new model's %d", out.Label, want)
	}
}

// ---------------------------------------------------------------------------
// Graceful drain

// TestGracefulDrain: requests already admitted when Close is called are
// still answered and leave no admission slot held; requests arriving
// during/after the drain get 503.
func TestGracefulDrain(t *testing.T) {
	const n = 3
	s, ts, _ := newTestServer(t, func(c *Config) { c.RequestTimeout = 8 * time.Second })
	gate := gatePredicts(t, s)
	results := make(chan error, n)
	var held []chan struct{}
	for i := 0; i < n; i++ {
		go func() {
			status, body, err := rawPredict(ts, predictBody("", fixProbe[i].Values))
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("admitted request drained with status %d, want 200: %s", status, body)
			}
			results <- err
		}()
		held = append(held, <-gate) // request i is admitted and stalled
	}
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()
	waitFor(t, s.Draining)
	for _, release := range held {
		close(release)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if held := len(s.admit); held != 0 {
		t.Fatalf("%d admission slots held after Close, want 0", held)
	}
	// The drained server refuses new work.
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("", fixProbe[0].Values))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain predict = %d: %s", resp.StatusCode, body)
	}
	var env serveclient.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "draining" {
		t.Fatalf("post-drain envelope = %s", body)
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// ---------------------------------------------------------------------------
// Models listing

func TestModelsEndpoint(t *testing.T) {
	_, ts, dir := newTestServer(t, nil)
	writeModel(t, dir, "cbf2", model2)
	if resp, body := postJSON(t, ts.URL+"/admin/reload", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Models) != 2 || out.Models[0].Name != "cbf" || out.Models[1].Name != "cbf2" {
		t.Fatalf("models = %+v", out.Models)
	}
	for _, m := range out.Models {
		if m.NumPatterns <= 0 || len(m.Classes) == 0 || m.Version != 1 {
			t.Fatalf("model info incomplete: %+v", m)
		}
	}
	// Two models ⇒ no default: an unnamed predict is a 400.
	resp2, body := postJSON(t, ts.URL+"/v1/predict", predictBody("", fixProbe[0].Values))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous model predict = %d: %s", resp2.StatusCode, body)
	}
	// A named predict is answered by the model it names.
	for _, c := range []struct {
		name string
		clf  *rpm.Classifier
	}{{"cbf2", fixClf2}, {"cbf", fixClf1}, {"cbf2", fixClf2}} {
		for i, in := range fixProbe {
			resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody(c.name, in.Values))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s probe %d: %d %s", c.name, i, resp.StatusCode, body)
			}
			var res serveclient.PredictResult
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			if want := c.clf.Predict(in.Values); res.Model != c.name || res.Label != want {
				t.Fatalf("%s probe %d: served %s label %d, want %s label %d", c.name, i, res.Model, res.Label, c.name, want)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Concurrency (exercised under -race via the Makefile RACE_PKGS)

// TestConcurrentClients hammers the server from several goroutines with
// mixed single/batch/models traffic while reloads swap the model
// underneath; every request must succeed and every label match one of
// the two model generations.
func TestConcurrentClients(t *testing.T) {
	s, ts, dir := newTestServer(t, nil)
	const clients, per = 4, 15
	want1 := fixClf1.PredictBatch(fixProbe)
	want2 := fixClf2.PredictBatch(fixProbe)
	var wg sync.WaitGroup
	for cIdx := 0; cIdx < clients; cIdx++ {
		wg.Add(1)
		go func(cIdx int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := (cIdx + i) % len(fixProbe)
				switch i % 3 {
				case 0, 1:
					resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[k].Values))
					if resp.StatusCode != http.StatusOK {
						t.Errorf("client %d predict: %d %s", cIdx, resp.StatusCode, body)
						return
					}
					var out serveclient.PredictResult
					json.Unmarshal(body, &out)
					if out.Label != want1[k] && out.Label != want2[k] {
						t.Errorf("client %d: label %d matches neither model generation", cIdx, out.Label)
					}
				case 2:
					req, _ := json.Marshal(serveclient.BatchRequest{Model: "cbf", Series: [][]float64{fixProbe[k].Values}})
					resp, body := postJSON(t, ts.URL+"/v1/predict:batch", string(req))
					if resp.StatusCode != http.StatusOK {
						t.Errorf("client %d batch: %d %s", cIdx, resp.StatusCode, body)
						return
					}
				}
			}
		}(cIdx)
	}
	// Reloader: swap between the two generations while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if i%2 == 0 {
				writeModel(t, dir, "cbf", model2)
			} else {
				writeModel(t, dir, "cbf", model1)
			}
			if _, err := s.Reload(); err != nil {
				t.Errorf("reload %d: %v", i, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	snap := s.reg.Snapshot()
	if snap.Counter(CtrRequests) < clients*per {
		t.Fatalf("requests counter = %d", snap.Counter(CtrRequests))
	}
}
