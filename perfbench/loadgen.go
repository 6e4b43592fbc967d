package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sender performs request i on behalf of one generator connection. It
// returns nil only when the response was a 200 whose content checked out
// (for example, a label equal to the in-process reference).
type sender func(ctx context.Context, i int) error

// loadResult is everything a generator run observed. Every latency is
// kept, so percentiles are exact.
type loadResult struct {
	lat     []time.Duration // completion − scheduled send (open) or actual send (closed)
	rtt     []time.Duration // completion − actual send
	lag     []time.Duration // actual send − scheduled send (open loop only)
	index   []int           // request index of each sample
	ok      int64
	failed  int64
	elapsed time.Duration // first scheduled send to last completion
	errs    []error       // the first few failures, for the report
}

// record is one completed request.
type record struct {
	i               int
	due, sent, done time.Time
	err             error
}

// collect folds per-connection records into a loadResult.
func collect(start time.Time, parts [][]record) loadResult {
	var r loadResult
	var last time.Time
	for _, part := range parts {
		for _, rec := range part {
			if rec.done.After(last) {
				last = rec.done
			}
			if rec.err != nil {
				r.failed++
				if len(r.errs) < 5 {
					r.errs = append(r.errs, fmt.Errorf("request %d: %w", rec.i, rec.err))
				}
				continue
			}
			r.ok++
			r.lat = append(r.lat, rec.done.Sub(rec.due))
			r.rtt = append(r.rtt, rec.done.Sub(rec.sent))
			r.lag = append(r.lag, rec.sent.Sub(rec.due))
			r.index = append(r.index, rec.i)
		}
	}
	r.elapsed = last.Sub(start)
	return r
}

// openLoop sends n requests on a fixed schedule: request i is due at
// start + i/rate, whether or not earlier ones have completed. At most
// conns requests are in flight; a request that finds every connection
// busy is sent late, and its latency still counts from when it was due,
// so a stall shows in every request it delays. The generator's own
// lateness is reported as lag.
func openLoop(ctx context.Context, rate float64, n, conns int, send sender) loadResult {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	parts := make([][]record, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				sent := time.Now()
				err := send(ctx, i)
				parts[c] = append(parts[c], record{i: i, due: due, sent: sent, done: time.Now(), err: err})
			}
		}(c)
	}
	wg.Wait()
	return collect(start, parts)
}

// closedLoop runs conns connections that each send their next request
// as soon as the previous one completes, until the deadline.
func closedLoop(ctx context.Context, until time.Time, conns int, send sender) loadResult {
	start := time.Now()
	var next atomic.Int64
	parts := make([][]record, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(until) {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				err := send(ctx, i)
				parts[c] = append(parts[c], record{i: i, due: sent, sent: sent, done: time.Now(), err: err})
			}
		}(c)
	}
	wg.Wait()
	return collect(start, parts)
}

// newClient is an HTTP client that keeps at most conns connections to
// the server open and reuses them.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// post sends a JSON body and returns the response body of a 200; any
// other status is an error carrying the body.
func post(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// get fetches a URL and returns the body of a 200.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// account adds a generator run's operations to the result.
func (r *result) account(phase string, lr loadResult) {
	r.attempted += lr.ok + lr.failed
	r.failed += lr.failed
	for _, err := range lr.errs {
		r.problemf("%s: %v", phase, err)
	}
}
