package serve

// Focused resilience tests pinning individual failure behaviors: the
// drain readiness contract (/readyz vs /healthz), the deadline check
// after admission, and single-site fault injection through the HTTP
// surface. The chaos suite (chaos_test.go) composes these
// behaviors under randomized storms; these tests pin each one in
// isolation so a regression names the exact broken mechanism.

import (
	"encoding/json"
	"net/http"
	"testing"

	"rpm"
	"rpm/internal/faults"
	serveclient "rpm/internal/serve/client"
)

// TestDrainReadyzVsHealthz pins the drain readiness contract: the
// moment BeginDrain is called — long before the process exits —
// /readyz flips to 503 so load balancers stop routing here, while
// /healthz stays 200 because the process is alive and finishing its
// queued work. Killing liveness during a drain would get a draining
// pod restarted mid-drain, the exact opposite of graceful.
func TestDrainReadyzVsHealthz(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, buf[:n]
	}
	if status, body := get("/readyz"); status != http.StatusOK {
		t.Fatalf("pre-drain /readyz = %d: %s", status, body)
	}
	if status, body := get("/healthz"); status != http.StatusOK {
		t.Fatalf("pre-drain /healthz = %d: %s", status, body)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	status, body := get("/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503: %s", status, body)
	}
	if code := errCode(t, status, body); code != "draining" {
		t.Fatalf("draining /readyz code = %q, want draining", code)
	}
	if status, body := get("/healthz"); status != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (liveness must survive the drain): %s", status, body)
	}
	// The serving endpoints reject immediately too.
	resp, rbody := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, resp.StatusCode, rbody) != "draining" {
		t.Fatalf("draining /v1/predict = %d %s, want 503 draining", resp.StatusCode, rbody)
	}
}

// TestFlushShedsExpiredQueuedRequest pins the deadline check after
// admission: a request whose context is already dead is answered with
// 504 and never looked up or computed. It targets a nonexistent model —
// if the handler consulted the store before the check, the answer would
// be 404, so getting 504 proves the shed comes first. The next request
// to the same unknown model, alive, is looked up and gets its 404, and
// a live request to a real model still gets the direct-Predict label.
// (The name dates from the micro-batcher, whose flush made this check;
// the handler makes it now.)
func TestFlushShedsExpiredQueuedRequest(t *testing.T) {
	inj, err := faults.New(7, "server.deadline:p=1:n=1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := newTestServer(t, func(c *Config) { c.Faults = inj })
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("ghost", fixProbe[0].Values))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request = %d %s, want 504 (it must be shed before the store lookup)", resp.StatusCode, body)
	}
	if code := errCode(t, resp.StatusCode, body); code != "deadline_exceeded" {
		t.Fatalf("expired request code = %q, want deadline_exceeded", code)
	}
	snap := s.reg.Snapshot()
	if n := snap.Counter(CtrExpired); n != 1 {
		t.Fatalf("expired counter = %d, want 1", n)
	}
	if n := snap.Counter(CtrBatches); n != 0 {
		t.Fatalf("%d predict tasks recorded for a request that was never computed", n)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictBody("ghost", fixProbe[0].Values))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("live request to an unknown model = %d %s, want 404", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[1].Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live request = %d %s, want 200", resp.StatusCode, body)
	}
	var out serveclient.PredictResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if want := fixClf1.Predict(fixProbe[1].Values); out.Label != want {
		t.Fatalf("live request label %d != direct Predict %d", out.Label, want)
	}
}

// TestFlushShedsAllExpiredGroup: several dead requests in a row are
// each answered 504 and none of them is computed — the expired counter
// counts every one and no predict task is recorded.
func TestFlushShedsAllExpiredGroup(t *testing.T) {
	inj, err := faults.New(7, "server.deadline:p=1:n=3")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := newTestServer(t, func(c *Config) { c.Faults = inj })
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("ghost", fixProbe[i].Values))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("expired request %d = %d %s, want 504", i, resp.StatusCode, body)
		}
	}
	snap := s.reg.Snapshot()
	if n := snap.Counter(CtrExpired); n != 3 {
		t.Fatalf("expired counter = %d, want 3", n)
	}
	if n := snap.Counter(CtrBatches); n != 0 {
		t.Fatalf("batches counter = %d, want 0 (nothing was computed)", n)
	}
}

// TestDeadlineFaultAnswers504 drives the deadline-exhaustion site
// end-to-end: the first request's context is killed before it is
// admitted (n=1 caps the blast), so the handler answers 504
// deadline_exceeded and the deadline check counts the shed; the very
// next request serves normally.
func TestDeadlineFaultAnswers504(t *testing.T) {
	inj, err := faults.New(7, "server.deadline:p=1:n=1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := newTestServer(t, func(c *Config) { c.Faults = inj })
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("faulted request = %d %s, want 504", resp.StatusCode, body)
	}
	if code := errCode(t, resp.StatusCode, body); code != "deadline_exceeded" {
		t.Fatalf("faulted request code = %q, want deadline_exceeded", code)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request = %d %s, want 200", resp.StatusCode, body)
	}
	// The dead request was shed after admission, never computed.
	if n := s.reg.Snapshot().Counter(CtrExpired); n != 1 {
		t.Fatalf("expired counter = %d, want 1", n)
	}
}

// TestEnqueueFaultSheds429: an injected full admission is answered
// exactly like the real thing — 429, "overloaded" envelope, and a
// Retry-After hint for well-behaved clients.
func TestEnqueueFaultSheds429(t *testing.T) {
	inj, err := faults.New(7, "server.admit:p=1:n=1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, func(c *Config) { c.Faults = inj })
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("faulted request = %d %s, want 429", resp.StatusCode, body)
	}
	if code := errCode(t, resp.StatusCode, body); code != "overloaded" {
		t.Fatalf("faulted request code = %q, want overloaded", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault request = %d %s, want 200", resp.StatusCode, body)
	}
}

// TestStoreLoadFaultKeepsOldModel: an injected model-load I/O failure
// during reload must leave the previous version serving (skip=1 exempts
// the initial load). The follow-up reload then picks up the new bytes.
func TestStoreLoadFaultKeepsOldModel(t *testing.T) {
	inj, err := faults.New(7, "store.load:skip=1:p=1:n=1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, dir := newTestServer(t, func(c *Config) { c.Faults = inj })
	writeModel(t, dir, "cbf", model2)
	rep, err := s.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.KeptOld) != 1 || len(rep.Loaded) != 0 {
		t.Fatalf("faulted reload: keptOld=%d loaded=%d, want 1/0", len(rep.KeptOld), len(rep.Loaded))
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", predictBody("cbf", fixProbe[0].Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after faulted reload = %d %s", resp.StatusCode, body)
	}
	// v1 (model1) must still be the one answering.
	checkIdentity(t, body, map[int]*rpm.Classifier{1: fixClf1}, fixProbe[0].Values)
	// The fault budget (n=1) is spent: the next reload loads model2.
	rep, err = s.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 1 {
		t.Fatalf("post-fault reload: loaded=%d, want 1", len(rep.Loaded))
	}
	m, err := s.store.Get("cbf")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 {
		t.Fatalf("post-fault version = %d, want 2", m.Version)
	}
}

// TestWriteFaultAbortsConnection: an injected response-write failure
// aborts the connection (client sees a transport error) instead of
// sending a truncated or wrong 200 — and must not surface as a 500
// through the panic guard.
func TestWriteFaultAbortsConnection(t *testing.T) {
	inj, err := faults.New(7, "server.write:p=1:n=1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := newTestServer(t, func(c *Config) { c.Faults = inj })
	_, _, perr := rawPredict(ts, predictBody("cbf", fixProbe[0].Values))
	if perr == nil {
		t.Fatal("faulted write delivered a response; want an aborted connection")
	}
	status, body, perr := rawPredict(ts, predictBody("cbf", fixProbe[0].Values))
	if perr != nil || status != http.StatusOK {
		t.Fatalf("post-fault request: status %d err %v (%s)", status, perr, body)
	}
	if n := s.reg.Snapshot().Counter(CtrErrPrefix + "internal"); n != 0 {
		t.Fatalf("write abort surfaced as %d internal errors", n)
	}
}
