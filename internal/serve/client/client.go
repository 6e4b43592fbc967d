// Package serveclient is the self-healing HTTP client for rpmserved:
// retries with capped exponential backoff and full jitter from a seeded
// source, honors Retry-After on 429/503, enforces per-attempt and
// overall deadlines, and isolates failures behind a per-model circuit
// breaker so one flapping model cannot consume the retry budget of
// healthy ones. cmd/rpmload (-retries) and cmd/rpmcli (-remote) are the
// command-line surfaces.
//
// Retry policy matrix of Predict and PredictBatch (pure functions of
// their input, hence idempotent and safe to retry):
//
//	outcome               retried   breaker    backoff
//	transport error       yes       failure    jittered
//	429 overloaded        yes       —          Retry-After, else jittered
//	502/503/504           yes       failure    Retry-After (503), else jittered
//	500 internal          no        failure    —
//	400/404/413/422       no        —          —
//	200                   —         success    —
//
// A 429 is deliberately not a breaker failure: load shedding means the
// server is healthy but busy, and opening the breaker would turn
// backpressure into an outage. The breaker opens after
// breakerThreshold (5) consecutive failures, rejects instantly while
// open (ErrBreakerOpen), and after breakerOpenFor (2s) admits a single
// half-open probe: its success closes the breaker, its failure re-opens
// it. Backoff ceilings start at 50ms and cap at 2s; the policy values
// are package constants, not Config fields.
//
// Breaker state and retry activity are exposed through an optional
// obs.Registry (nil = instrumentation off, the repo-wide convention).
package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rpm/internal/obs"
)

// ErrBreakerOpen is returned (wrapped, naming the model) when the
// model's circuit breaker rejects the call without attempting it.
var ErrBreakerOpen = errors.New("serveclient: circuit breaker open")

// APIError is a non-2xx answer from the server, carrying the stable
// envelope code (PR-2 taxonomy: bad_input, too_short, overloaded,
// draining, deadline_exceeded, …). A response whose body is not the
// JSON envelope gets code "http_<status>". It is also the "error"
// object of ErrorEnvelope, so the server encodes this same type.
type APIError struct {
	Code    string `json:"code"`
	Status  int    `json:"status"`
	Message string `json:"message"`

	// retryAfter is the server's parsed Retry-After hint — transport
	// advice consumed by the retry loop, not part of the error identity.
	retryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serveclient: server answered %d %s: %s", e.Status, e.Code, e.Message)
}

// Retry and breaker policy. These are fixed rather than configurable:
// no caller has needed another value, and the tests drive the breaker
// on a fake clock.
const (
	// baseBackoff is the first retry's backoff ceiling; successive
	// retries double it up to maxBackoff, and the actual wait is drawn
	// uniformly from (0, ceiling] — full jitter.
	baseBackoff = 50 * time.Millisecond
	// maxBackoff caps both the exponential ceiling and an honored
	// Retry-After hint.
	maxBackoff = 2 * time.Second
	// breakerThreshold is the consecutive-failure count that opens a
	// model's breaker.
	breakerThreshold = 5
	// breakerOpenFor is how long an open breaker rejects before
	// admitting its single half-open probe.
	breakerOpenFor = 2 * time.Second
)

// Config configures a Client. Zero fields select the documented
// defaults.
type Config struct {
	// BaseURL is the rpmserved base URL, e.g. "http://127.0.0.1:8080".
	// Required.
	BaseURL string
	// HTTPClient is the transport; a default client with no built-in
	// timeout is used when nil (deadlines come from the per-attempt and
	// overall budgets below).
	HTTPClient *http.Client
	// MaxAttempts bounds the total tries per request, first attempt
	// included (default 3). 1 disables retries.
	MaxAttempts int
	// PerAttemptTimeout bounds each individual HTTP exchange
	// (default 5s).
	PerAttemptTimeout time.Duration
	// OverallTimeout bounds one logical call across all attempts and
	// backoff sleeps (default 15s).
	OverallTimeout time.Duration
	// Seed seeds the jitter source; runs with the same seed draw the
	// same backoff sequence (default 1).
	Seed int64
	// Registry receives client.* counters and breaker state gauges; nil
	// disables instrumentation (every obs handle is nil-safe).
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.PerAttemptTimeout <= 0 {
		c.PerAttemptTimeout = 5 * time.Second
	}
	if c.OverallTimeout <= 0 {
		c.OverallTimeout = 15 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// The JSON bodies rpmserved and its callers exchange. They are declared
// here, in the dependency-light client package, and the server encodes
// and decodes these same types, so the two sides cannot drift.

// PredictRequest is the body of POST /v1/predict. Its {model, values}
// shape is also the body of a stream append, POST /v1/streams/{id}.
type PredictRequest struct {
	// Model selects the model by name; optional when exactly one model
	// is loaded. On a stream append it binds the model when the append
	// creates the stream, and must otherwise be empty or name the
	// stream's bound model.
	Model  string    `json:"model,omitempty"`
	Values []float64 `json:"values"`
}

// BatchRequest is the body of POST /v1/predict:batch.
type BatchRequest struct {
	Model  string      `json:"model,omitempty"`
	Series [][]float64 `json:"series"`
}

// PredictResult is a successful /v1/predict answer.
type PredictResult struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	Label   int    `json:"label"`
}

// BatchResult is a successful /v1/predict:batch answer.
type BatchResult struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	Labels  []int  `json:"labels"`
}

// ErrorEnvelope is the body of every non-2xx rpmserved answer:
// {"error": {"code", "status", "message"}}.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// Client is a retrying, circuit-breaking rpmserved client. Safe for
// concurrent use. Construct with New.
type Client struct {
	cfg  Config
	base string
	hc   *http.Client
	reg  *obs.Registry

	rngMu sync.Mutex
	rng   *rand.Rand

	brMu     sync.Mutex
	breakers map[string]*breaker

	attempts *obs.Counter
	retries  *obs.Counter
	rejected *obs.Counter

	// Test seams; real clock and sleeper in production.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a Client over cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if strings.TrimSpace(cfg.BaseURL) == "" {
		return nil, fmt.Errorf("serveclient: Config.BaseURL is required")
	}
	cfg = cfg.withDefaults()
	return &Client{
		cfg:      cfg,
		base:     strings.TrimRight(cfg.BaseURL, "/"),
		hc:       cfg.HTTPClient,
		reg:      cfg.Registry,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		breakers: map[string]*breaker{},
		attempts: cfg.Registry.Counter(CtrAttempts),
		retries:  cfg.Registry.Counter(CtrRetries),
		rejected: cfg.Registry.Counter(CtrBreakerRejected),
		now:      time.Now,
		sleep:    sleepCtx,
	}, nil
}

// Predict classifies one series, retrying per the policy matrix.
func (c *Client) Predict(ctx context.Context, model string, values []float64) (PredictResult, error) {
	body, err := json.Marshal(PredictRequest{Model: model, Values: values})
	if err != nil {
		return PredictResult{}, fmt.Errorf("serveclient: marshal: %w", err)
	}
	data, err := c.do(ctx, model, "/v1/predict", body)
	if err != nil {
		return PredictResult{}, err
	}
	var out PredictResult
	if err := json.Unmarshal(data, &out); err != nil {
		return PredictResult{}, fmt.Errorf("serveclient: decoding response: %w", err)
	}
	return out, nil
}

// PredictBatch classifies a pre-assembled batch in one call.
func (c *Client) PredictBatch(ctx context.Context, model string, series [][]float64) (BatchResult, error) {
	body, err := json.Marshal(BatchRequest{Model: model, Series: series})
	if err != nil {
		return BatchResult{}, fmt.Errorf("serveclient: marshal: %w", err)
	}
	data, err := c.do(ctx, model, "/v1/predict:batch", body)
	if err != nil {
		return BatchResult{}, err
	}
	var out BatchResult
	if err := json.Unmarshal(data, &out); err != nil {
		return BatchResult{}, fmt.Errorf("serveclient: decoding response: %w", err)
	}
	return out, nil
}

// Ready probes GET /readyz once: nil when the server answers 200.
func (c *Client) Ready(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.PerAttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Code: "not_ready", Message: "server not ready"}
	}
	return nil
}

// WaitReady polls /readyz until it answers 200 or the budget elapses.
func (c *Client) WaitReady(ctx context.Context, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	var last error
	for {
		if last = c.Ready(ctx); last == nil {
			return nil
		}
		if err := c.sleep(ctx, 50*time.Millisecond); err != nil {
			return fmt.Errorf("serveclient: server not ready after %v (last: %v)", budget, last)
		}
	}
}

// ---------------------------------------------------------------------------
// Core retry loop

// do runs one logical POST through the model's breaker and the retry
// policy, returning the 200 body or the terminal error. Every POST the
// client sends is idempotent, so every one may be retried.
func (c *Client) do(ctx context.Context, model, path string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.OverallTimeout)
	defer cancel()
	br := c.breakerFor(model)
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
		}
		if !br.allow(c.now()) {
			c.rejected.Inc()
			if lastErr != nil {
				return nil, fmt.Errorf("%w (model %q; last error: %v)", ErrBreakerOpen, model, lastErr)
			}
			return nil, fmt.Errorf("%w (model %q)", ErrBreakerOpen, model)
		}
		c.attempts.Inc()
		data, apiErr, err := c.attempt(ctx, path, body)
		switch {
		case err == nil && apiErr == nil:
			br.record(true, c.now())
			return data, nil
		case err != nil:
			// Transport failure: the server's health is unknown and the
			// request may or may not have run, which an idempotent
			// request can afford.
			br.record(false, c.now())
			lastErr = err
			if ctx.Err() != nil {
				return nil, err
			}
		default:
			if breakerFailure(apiErr.Status) {
				br.record(false, c.now())
			} else {
				br.record(true, c.now())
			}
			lastErr = apiErr
			if !retryableStatus(apiErr.Status) {
				return nil, apiErr
			}
		}
		if attempt+1 >= c.cfg.MaxAttempts {
			return nil, lastErr
		}
		if err := c.sleep(ctx, c.backoff(attempt, retryAfterOf(lastErr))); err != nil {
			return nil, fmt.Errorf("serveclient: giving up during backoff: %w (last error: %v)", err, lastErr)
		}
	}
	return nil, lastErr
}

// attempt runs one HTTP exchange under the per-attempt deadline.
// Returns exactly one of: data (200), apiErr (non-2xx), err (transport).
func (c *Client) attempt(ctx context.Context, path string, body []byte) ([]byte, *APIError, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.PerAttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("serveclient: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("serveclient: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("serveclient: reading response: %w", err)
	}
	if resp.StatusCode == http.StatusOK {
		return data, nil, nil
	}
	apiErr := &APIError{Status: resp.StatusCode, Code: "http_" + strconv.Itoa(resp.StatusCode)}
	var env ErrorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		apiErr.Code = env.Error.Code
		apiErr.Message = env.Error.Message
	}
	apiErr.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), c.now())
	return nil, apiErr, nil
}

// retryAfter is carried on APIError unexported: it is transport advice,
// not part of the error's identity.
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.retryAfter
	}
	return 0
}

// backoff computes the next sleep: an honored Retry-After hint (capped
// at maxBackoff) when the server sent one, else full jitter over the
// capped exponential ceiling baseBackoff·2^attempt.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if retryAfter > maxBackoff {
			return maxBackoff
		}
		return retryAfter
	}
	ceiling := baseBackoff << attempt
	if ceiling <= 0 || ceiling > maxBackoff { // <=0: shift overflow
		ceiling = maxBackoff
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(ceiling))) + 1
}

// retryableStatus: outcomes where a retry can plausibly succeed and the
// request provably did not corrupt state (shed, draining, timeout,
// proxy hiccup).
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// breakerFailure: statuses that indicate the serving path is unhealthy.
// 429 is excluded — shedding is backpressure from a healthy server.
func breakerFailure(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter handles both forms of the header: delay-seconds and
// HTTP-date. Returns 0 when absent or unparsable.
func parseRetryAfter(h string, now time.Time) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

func (c *Client) breakerFor(model string) *breaker {
	key := modelKey(model)
	c.brMu.Lock()
	defer c.brMu.Unlock()
	br, ok := c.breakers[key]
	if !ok {
		br = newBreaker(c.reg.Counter(CtrBreakerOpened),
			c.reg.Counter(CtrBreakerClosed),
			c.reg.Gauge(GaugeBreakerStatePrefix+key))
		c.breakers[key] = br
	}
	return br
}

// modelKey names the default model's breaker when requests omit the
// model field.
func modelKey(model string) string {
	if model == "" {
		return "(default)"
	}
	return model
}

// sleepCtx sleeps d or returns the context error if it fires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
