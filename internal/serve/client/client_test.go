package serveclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpm/internal/obs"
)

// fakeClock is a deterministic time source tests advance by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestClient builds a Client over srv with instant sleeps (recorded
// into *sleeps) and a fake clock, so retry tests run in microseconds
// and assert the exact backoff sequence.
func newTestClient(t *testing.T, srv *httptest.Server, mut func(*Config)) (*Client, *fakeClock, *[]time.Duration) {
	t.Helper()
	cfg := Config{BaseURL: srv.URL, Seed: 42}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	clk := newFakeClock()
	c.now = clk.now
	sleeps := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		*sleeps = append(*sleeps, d)
		return nil
	}
	return c, clk, sleeps
}

// breakerState is the named model's breaker state (stateClosed when the
// model has never been called).
func breakerState(c *Client, model string) int {
	c.brMu.Lock()
	br := c.breakers[modelKey(model)]
	c.brMu.Unlock()
	if br == nil {
		return stateClosed
	}
	br.mu.Lock()
	defer br.mu.Unlock()
	return br.state
}

func writeEnvelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":{"code":%q,"status":%d,"message":%q}}`, code, status, msg)
}

func writePredict(w http.ResponseWriter, label int) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"model": "syn", "version": 1, "label": label})
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with empty BaseURL should fail")
	}
	c, err := New(Config{BaseURL: "http://x/"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.base != "http://x" {
		t.Fatalf("trailing slash not trimmed: %q", c.base)
	}
	if c.cfg.MaxAttempts != 3 || c.cfg.PerAttemptTimeout != 5*time.Second ||
		c.cfg.OverallTimeout != 15*time.Second || c.cfg.Seed != 1 || c.cfg.HTTPClient == nil {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
}

func TestPredictSuccess(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/predict" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		var req PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		if req.Model != "syn" || len(req.Values) != 3 {
			t.Errorf("unexpected payload: %+v", req)
		}
		writePredict(w, 7)
	}))
	defer srv.Close()
	c, _, _ := newTestClient(t, srv, nil)
	res, err := c.Predict(context.Background(), "syn", []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if res.Label != 7 || res.Model != "syn" || res.Version != 1 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestRetryOn503ThenSuccess(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeEnvelope(w, http.StatusServiceUnavailable, "draining", "try later")
			return
		}
		writePredict(w, 1)
	}))
	defer srv.Close()
	reg := obs.NewRegistry()
	c, _, sleeps := newTestClient(t, srv, func(cfg *Config) { cfg.Registry = reg })
	res, err := c.Predict(context.Background(), "syn", []float64{1})
	if err != nil {
		t.Fatalf("Predict after retries: %v", err)
	}
	if res.Label != 1 {
		t.Fatalf("label = %d, want 1", res.Label)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if len(*sleeps) != 2 {
		t.Fatalf("slept %d times, want 2: %v", len(*sleeps), *sleeps)
	}
	snap := reg.Snapshot()
	if snap.Counter(CtrAttempts) != 3 || snap.Counter(CtrRetries) != 2 {
		t.Fatalf("counters: attempts=%d retries=%d", snap.Counter(CtrAttempts), snap.Counter(CtrRetries))
	}
}

func TestTerminalErrorsAreNotRetried(t *testing.T) {
	for _, tc := range []struct {
		status int
		code   string
	}{
		{http.StatusBadRequest, "bad_input"},
		{http.StatusNotFound, "not_found"},
		{http.StatusRequestEntityTooLarge, "too_large"},
		{http.StatusUnprocessableEntity, "too_short"},
		{http.StatusInternalServerError, "internal"},
	} {
		var calls atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			writeEnvelope(w, tc.status, tc.code, "nope")
		}))
		c, _, _ := newTestClient(t, srv, nil)
		_, err := c.Predict(context.Background(), "syn", []float64{1})
		srv.Close()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("status %d: want *APIError, got %v", tc.status, err)
		}
		if apiErr.Status != tc.status || apiErr.Code != tc.code {
			t.Fatalf("status %d: envelope not parsed: %+v", tc.status, apiErr)
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("status %d: server saw %d calls, want 1 (terminal)", tc.status, got)
		}
	}
}

func TestRetryAfterSecondsHonored(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			writeEnvelope(w, http.StatusTooManyRequests, "overloaded", "shed")
			return
		}
		writePredict(w, 2)
	}))
	defer srv.Close()
	c, _, sleeps := newTestClient(t, srv, nil)
	if _, err := c.Predict(context.Background(), "syn", []float64{1}); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != time.Second {
		t.Fatalf("Retry-After not honored: slept %v, want [1s]", *sleeps)
	}
}

func TestRetryAfterHTTPDateHonoredAndCapped(t *testing.T) {
	clkStart := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// 30s in the future per the fake clock — beyond maxBackoff.
			w.Header().Set("Retry-After", clkStart.Add(30*time.Second).Format(http.TimeFormat))
			writeEnvelope(w, http.StatusServiceUnavailable, "draining", "later")
			return
		}
		writePredict(w, 3)
	}))
	defer srv.Close()
	c, _, sleeps := newTestClient(t, srv, nil)
	if _, err := c.Predict(context.Background(), "syn", []float64{1}); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 2*time.Second {
		t.Fatalf("HTTP-date Retry-After not capped at maxBackoff: %v", *sleeps)
	}
}

func TestBackoffJitterDeterministicAndCapped(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		c, err := New(Config{BaseURL: "http://x", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var out []time.Duration
		for attempt := 0; attempt < 8; attempt++ {
			out = append(out, c.backoff(attempt, 0))
		}
		return out
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
		ceiling := 50 * time.Millisecond << i
		if ceiling > 2*time.Second || ceiling <= 0 {
			ceiling = 2 * time.Second
		}
		if a[i] <= 0 || a[i] > ceiling {
			t.Fatalf("backoff[%d] = %v outside (0, %v]", i, a[i], ceiling)
		}
	}
	if d := mk(8); fmt.Sprint(d) == fmt.Sprint(a) {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestTransportErrorRetried(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writePredict(w, 1)
	}))
	srv.Close() // immediately: every dial fails
	c, _, sleeps := newTestClient(t, srv, nil)
	_, err := c.Predict(context.Background(), "syn", []float64{1})
	if err == nil {
		t.Fatal("Predict against closed server should fail")
	}
	if len(*sleeps) != 2 {
		t.Fatalf("transport errors retried %d times, want 2 (MaxAttempts=3): %v", len(*sleeps), *sleeps)
	}
}

func TestOverallDeadlineStopsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusServiceUnavailable, "draining", "later")
	}))
	defer srv.Close()
	c, _, _ := newTestClient(t, srv, func(cfg *Config) {
		cfg.MaxAttempts = 100
		cfg.OverallTimeout = 50 * time.Millisecond
	})
	// Real sleeps here so the overall deadline actually elapses.
	c.sleep = sleepCtx
	start := time.Now()
	_, err := c.Predict(context.Background(), "syn", []float64{1})
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("overall deadline did not stop retries (took %v)", elapsed)
	}
}

func TestBreakerOpensAndRejects(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusInternalServerError, "internal", "boom")
	}))
	defer srv.Close()
	reg := obs.NewRegistry()
	c, _, _ := newTestClient(t, srv, func(cfg *Config) { cfg.Registry = reg })
	// 500 is terminal (no retry) but a breaker failure: five calls trip it.
	for i := 0; i < 5; i++ {
		if _, err := c.Predict(context.Background(), "syn", []float64{1}); err == nil {
			t.Fatal("want error")
		}
	}
	if got := breakerState(c, "syn"); got != stateOpen {
		t.Fatalf("breaker state = %d, want open", got)
	}
	_, err := c.Predict(context.Background(), "syn", []float64{1})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counter(CtrBreakerOpened) != 1 || snap.Counter(CtrBreakerRejected) == 0 {
		t.Fatalf("breaker counters: opened=%d rejected=%d",
			snap.Counter(CtrBreakerOpened), snap.Counter(CtrBreakerRejected))
	}
	if snap.Gauge(GaugeBreakerStatePrefix+"syn") != stateOpen {
		t.Fatalf("state gauge = %d, want open", snap.Gauge(GaugeBreakerStatePrefix+"syn"))
	}
}

func TestBreakerHalfOpenProbeClosesOnSuccess(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			writeEnvelope(w, http.StatusInternalServerError, "internal", "boom")
			return
		}
		writePredict(w, 9)
	}))
	defer srv.Close()
	reg := obs.NewRegistry()
	c, clk, _ := newTestClient(t, srv, func(cfg *Config) { cfg.Registry = reg })
	for i := 0; i < 5; i++ {
		c.Predict(context.Background(), "syn", []float64{1})
	}
	if got := breakerState(c, "syn"); got != stateOpen {
		t.Fatalf("state = %d, want open", got)
	}
	// Before the cool-off: still rejected.
	if _, err := c.Predict(context.Background(), "syn", []float64{1}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen before cool-off, got %v", err)
	}
	// After the cool-off the probe is admitted; server healthy again.
	failing.Store(false)
	clk.advance(3 * time.Second)
	res, err := c.Predict(context.Background(), "syn", []float64{1})
	if err != nil {
		t.Fatalf("probe should succeed: %v", err)
	}
	if res.Label != 9 {
		t.Fatalf("label = %d, want 9", res.Label)
	}
	if got := breakerState(c, "syn"); got != stateClosed {
		t.Fatalf("state after successful probe = %d, want closed", got)
	}
	if got := reg.Snapshot().Counter(CtrBreakerClosed); got != 1 {
		t.Fatalf("closed counter = %d, want 1", got)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusInternalServerError, "internal", "boom")
	}))
	defer srv.Close()
	c, clk, _ := newTestClient(t, srv, nil)
	for i := 0; i < 5; i++ {
		c.Predict(context.Background(), "syn", []float64{1}) // the fifth trips
	}
	clk.advance(3 * time.Second)
	c.Predict(context.Background(), "syn", []float64{1}) // failed probe
	if got := breakerState(c, "syn"); got != stateOpen {
		t.Fatalf("state after failed probe = %d, want open", got)
	}
}

func TestBreakerPerModelIsolation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req PredictRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.Model == "bad" {
			writeEnvelope(w, http.StatusInternalServerError, "internal", "boom")
			return
		}
		writePredict(w, 4)
	}))
	defer srv.Close()
	c, _, _ := newTestClient(t, srv, nil)
	for i := 0; i < 5; i++ {
		c.Predict(context.Background(), "bad", []float64{1})
	}
	if got := breakerState(c, "bad"); got != stateOpen {
		t.Fatalf("bad model state = %d, want open", got)
	}
	// The healthy model is unaffected by bad's open breaker.
	if _, err := c.Predict(context.Background(), "good", []float64{1}); err != nil {
		t.Fatalf("good model should serve: %v", err)
	}
	if got := breakerState(c, "good"); got != stateClosed {
		t.Fatalf("good model state = %d, want closed", got)
	}
}

func Test429IsNotABreakerFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusTooManyRequests, "overloaded", "shed")
	}))
	defer srv.Close()
	c, _, _ := newTestClient(t, srv, func(cfg *Config) { cfg.MaxAttempts = 10 })
	c.Predict(context.Background(), "syn", []float64{1})
	if got := breakerState(c, "syn"); got != stateClosed {
		t.Fatalf("429s must not trip the breaker: state = %d", got)
	}
}

func TestPredictBatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/predict:batch" {
			t.Errorf("path = %s", r.URL.Path)
		}
		var req BatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		labels := make([]int, len(req.Series))
		for i := range labels {
			labels[i] = i
		}
		json.NewEncoder(w).Encode(map[string]any{"model": "syn", "version": 2, "labels": labels})
	}))
	defer srv.Close()
	c, _, _ := newTestClient(t, srv, nil)
	res, err := c.PredictBatch(context.Background(), "syn", [][]float64{{1}, {2}, {3}})
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	if len(res.Labels) != 3 || res.Version != 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestEnvelopeFallbackForNonJSONBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer srv.Close()
	c, _, _ := newTestClient(t, srv, func(cfg *Config) { cfg.MaxAttempts = 1 })
	_, err := c.Predict(context.Background(), "syn", []float64{1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Code != "http_502" {
		t.Fatalf("fallback code = %q, want http_502", apiErr.Code)
	}
	if !strings.Contains(apiErr.Error(), "502") {
		t.Fatalf("Error() should carry the status: %q", apiErr.Error())
	}
}

func TestReadyAndWaitReady(t *testing.T) {
	var ready atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("path = %s", r.URL.Path)
		}
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c, _, _ := newTestClient(t, srv, nil)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		ready.Store(true) // flips ready on the first poll sleep
		return ctx.Err()
	}
	if err := c.Ready(context.Background()); err == nil {
		t.Fatal("Ready should fail while 503")
	}
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{"-1", 0},
		{"garbage", 0},
		{now.Add(10 * time.Second).Format(http.TimeFormat), 10 * time.Second},
		{now.Add(-10 * time.Second).Format(http.TimeFormat), 0},
	} {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestConcurrentClientIsRaceFree(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writePredict(w, 1)
	}))
	defer srv.Close()
	c, _, _ := newTestClient(t, srv, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			model := fmt.Sprintf("m%d", i%3)
			for j := 0; j < 20; j++ {
				c.Predict(context.Background(), model, []float64{1})
			}
		}(i)
	}
	wg.Wait()
}
