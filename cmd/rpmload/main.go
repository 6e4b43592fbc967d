// Command rpmload is a load generator for rpmserved: it drives the
// /v1/predict endpoint with synthetic queries in either a closed loop
// (-concurrency workers, each issuing the next request as soon as the
// previous one returns — measures capacity) or an open loop (-rate
// requests/sec on a fixed schedule regardless of responses — measures
// latency under a target arrival rate, the methodology that avoids
// coordinated omission). Latencies accumulate into an obs.Summary, the
// same power-of-two-bucket histogram the server reports, so client- and
// server-side percentiles are directly comparable.
//
// A 429 (load shed) is not a failure: it is the server's backpressure
// working as designed, so it is counted separately as "shed" and, in
// the closed loop, the worker honors the response's Retry-After hint
// before issuing its next request. With -retries N each request goes
// through the resilient serveclient (capped exponential backoff with
// full jitter, per-model circuit breaker) instead of raw one-shot HTTP,
// which is how a well-behaved production caller would drive the server.
//
// Stream mode (-streams N) drives the streaming subsystem instead of
// /v1/predict: the generator maintains N live streams and each request
// appends a pre-marshaled chunk (-stream-chunk samples) to the next
// stream round-robin via POST /v1/streams/{id}, measuring sustained
// samples-per-second ingest across many concurrent detectors. Closed
// and open loop work unchanged; -retries is predict-only.
//
// Exit status: 0 on a clean run; 1 under -strict when nothing completed
// or any request failed (non-200 envelope or transport error — shed
// requests do not fail strict); 2 on usage errors.
//
//	rpmload -addr http://localhost:8080 -duration 10s -concurrency 8
//	rpmload -rate 200 -duration 30s -strict
//	rpmload -duration 10s -retries 3 -strict
//	rpmload -streams 64 -stream-chunk 128 -duration 10s -strict
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpm/internal/obs"
	serveclient "rpm/internal/serve/client"
)

// maxRetryAfter caps how long a closed-loop worker honors a 429's
// Retry-After hint, so a confused server cannot park the whole run.
const maxRetryAfter = 2 * time.Second

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "rpmserved base URL")
		model       = flag.String("model", "", "model name (empty = server default)")
		duration    = flag.Duration("duration", 10*time.Second, "measured run length")
		concurrency = flag.Int("concurrency", 4, "closed-loop workers (also the open-loop in-flight cap multiplier)")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		seriesLen   = flag.Int("series-len", 128, "length of each synthetic query series")
		queries     = flag.Int("queries", 64, "distinct synthetic series cycled through")
		seed        = flag.Int64("seed", 1, "query-generation seed")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request client timeout")
		wait        = flag.Duration("wait", 0, "poll /readyz this long for the server to come up before loading")
		strict      = flag.Bool("strict", false, "exit 1 when nothing completed or any request failed (shed requests do not fail strict)")
		jsonOut     = flag.Bool("json", false, "emit the summary as JSON instead of text")
		retries     = flag.Int("retries", 0, "route requests through the resilient client with this many attempts each (0 = raw one-shot HTTP)")
		retrySeed   = flag.Int64("retry-seed", 1, "backoff-jitter seed for -retries")
		streams     = flag.Int("streams", 0, "stream mode: maintain this many live streams and append chunks round-robin (0 = predict mode)")
		streamChunk = flag.Int("stream-chunk", 64, "samples per stream append in -streams mode")
	)
	flag.Parse()
	if *concurrency < 1 || *seriesLen < 1 || *queries < 1 || *duration <= 0 || *rate < 0 {
		fmt.Fprintln(os.Stderr, "rpmload: -concurrency, -series-len, -queries and -duration must be positive; -rate non-negative")
		os.Exit(2)
	}
	if *streams < 0 || *streamChunk < 1 {
		fmt.Fprintln(os.Stderr, "rpmload: -streams must be non-negative and -stream-chunk positive")
		os.Exit(2)
	}
	if *streams > 0 && *retries > 0 {
		fmt.Fprintln(os.Stderr, "rpmload: -retries applies to predict mode only, not -streams")
		os.Exit(2)
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        4 * *concurrency,
			MaxIdleConnsPerHost: 4 * *concurrency,
		},
	}
	var sc *serveclient.Client
	if *wait > 0 || *retries > 0 {
		var err error
		sc, err = serveclient.New(serveclient.Config{
			BaseURL:           *addr,
			HTTPClient:        client,
			MaxAttempts:       *retries,
			PerAttemptTimeout: *timeout,
			OverallTimeout:    time.Duration(*retries+1) * *timeout,
			Seed:              *retrySeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpmload: %v\n", err)
			os.Exit(2)
		}
	}
	if *wait > 0 {
		if err := sc.WaitReady(context.Background(), *wait); err != nil {
			fmt.Fprintf(os.Stderr, "rpmload: %v\n", err)
			os.Exit(1)
		}
	}

	// Pre-generate the queries and pre-marshal the raw-path request
	// bodies: the generator must not spend its loop on JSON encoding.
	// Stream mode marshals chunks instead of whole series; both shapes
	// are the same JSON (model + values).
	rng := rand.New(rand.NewSource(*seed))
	chunkLen := *seriesLen
	if *streams > 0 {
		chunkLen = *streamChunk
	}
	values := make([][]float64, *queries)
	bodies := make([][]byte, *queries)
	for i := range bodies {
		v := make([]float64, chunkLen)
		x := 0.0
		for j := range v {
			x += rng.NormFloat64()
			v[j] = x
		}
		values[i] = v
		b, err := json.Marshal(serveclient.PredictRequest{Model: *model, Values: v})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpmload: marshal: %v\n", err)
			os.Exit(2)
		}
		bodies[i] = b
	}

	reg := obs.NewRegistry()
	var streamURLs []string
	for k := 0; k < *streams; k++ {
		streamURLs = append(streamURLs, fmt.Sprintf("%s/v1/streams/load-%04d", *addr, k))
	}
	g := &loadgen{
		client:     client,
		url:        *addr + "/v1/predict",
		streamURLs: streamURLs,
		model:      *model,
		bodies:     bodies,
		values:     values,
		ok:         reg.Counter(ctrOK),
		errs:       reg.Counter(ctrErrors),
		trans:      reg.Counter(ctrTransport),
		shed:       reg.Counter(ctrShed),
		drops:      reg.Counter(ctrDropped),
		lat:        reg.Summary(sumLatency),
		errsBy:     reg,
	}
	if *retries > 0 {
		g.sc = sc
	}

	start := time.Now()
	if *rate > 0 {
		g.openLoop(*rate, *duration, *concurrency)
	} else {
		g.closedLoop(*duration, *concurrency)
	}
	elapsed := time.Since(start)

	report(os.Stdout, reg, *rate, *concurrency, *streams, *streamChunk, elapsed, *jsonOut)
	if *strict {
		snap := reg.Snapshot()
		if snap.Counter(ctrOK) == 0 || snap.Counter(ctrErrors) > 0 || snap.Counter(ctrTransport) > 0 {
			os.Exit(1)
		}
	}
}

// loadgen issues requests and classifies outcomes into the registry.
type loadgen struct {
	client *http.Client
	sc     *serveclient.Client // non-nil with -retries: the resilient path
	url    string
	// streamURLs, when non-empty, switch the generator into stream mode:
	// each request appends the next pre-marshaled chunk to the next
	// stream round-robin.
	streamURLs []string
	model      string
	bodies     [][]byte
	values     [][]float64
	next       atomic.Int64

	ok     *obs.Counter
	errs   *obs.Counter
	trans  *obs.Counter
	shed   *obs.Counter
	drops  *obs.Counter
	lat    *obs.Summary
	errsBy *obs.Registry
}

// one issues a single request and records its outcome. The latency of
// every completed exchange (success or error envelope) is observed;
// transport failures have no meaningful service time and are only
// counted. A 429 counts as shed (not an error) and the worker honors
// the Retry-After hint, capped, before its next request — backpressure
// a closed loop must propagate, not ignore.
func (g *loadgen) one() {
	i := int(g.next.Add(1) - 1)
	url := g.url
	if len(g.streamURLs) > 0 {
		url = g.streamURLs[i%len(g.streamURLs)]
	}
	i %= len(g.bodies)
	if g.sc != nil {
		g.oneRetrying(i)
		return
	}
	start := time.Now()
	resp, err := g.client.Post(url, "application/json", bytes.NewReader(g.bodies[i]))
	if err != nil {
		g.trans.Inc()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	g.lat.Observe(time.Since(start))
	if err != nil {
		g.trans.Inc()
		return
	}
	if resp.StatusCode == http.StatusOK {
		g.ok.Inc()
		return
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		g.shed.Inc()
		time.Sleep(retryAfterDelay(resp.Header.Get("Retry-After")))
		return
	}
	g.errs.Inc()
	var env serveclient.ErrorEnvelope
	code := "http_" + strconv.Itoa(resp.StatusCode)
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		code = env.Error.Code
	}
	g.errsBy.Counter(ctrErrPrefix + code).Inc()
}

// oneRetrying issues one request through the resilient client; its
// latency spans all attempts (what the caller actually waited).
func (g *loadgen) oneRetrying(i int) {
	start := time.Now()
	_, err := g.sc.Predict(context.Background(), g.model, g.values[i])
	g.lat.Observe(time.Since(start))
	if err == nil {
		g.ok.Inc()
		return
	}
	var apiErr *serveclient.APIError
	switch {
	case errors.As(err, &apiErr):
		// The client already retried per policy; what is left is the
		// terminal answer. A final 429 is still a shed, not a failure.
		if apiErr.Status == http.StatusTooManyRequests {
			g.shed.Inc()
			return
		}
		g.errs.Inc()
		g.errsBy.Counter(ctrErrPrefix + apiErr.Code).Inc()
	case errors.Is(err, serveclient.ErrBreakerOpen):
		g.errs.Inc()
		g.errsBy.Counter(ctrErrPrefix + "breaker_open").Inc()
	default:
		g.trans.Inc()
	}
}

// retryAfterDelay parses a 429's Retry-After (delay-seconds form) and
// caps it at maxRetryAfter; absent or unparsable hints back off 50ms so
// a shedding server is never hammered in a zero-delay spin.
func retryAfterDelay(h string) time.Duration {
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		d := time.Duration(secs) * time.Second
		if d > maxRetryAfter {
			return maxRetryAfter
		}
		return d
	}
	return 50 * time.Millisecond
}

// closedLoop runs workers goroutines, each issuing back-to-back requests
// until the deadline.
func (g *loadgen) closedLoop(d time.Duration, workers int) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				g.one()
			}
		}()
	}
	wg.Wait()
}

// openLoop fires requests on a fixed schedule (rate per second) for d,
// each in its own goroutine so a slow response never delays the next
// arrival. In-flight requests are capped at 256×workers; an arrival that
// finds the cap exhausted is dropped AND counted — silently skipping it
// would hide the very overload the open loop exists to expose.
func (g *loadgen) openLoop(rate float64, d time.Duration, workers int) {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	sem := make(chan struct{}, 256*workers)
	deadline := time.Now().Add(d)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				g.one()
			}()
		default:
			g.drops.Inc()
		}
	}
	wg.Wait()
}

// report prints the run summary: mode, throughput, outcome counts and
// the latency distribution.
func report(w io.Writer, reg *obs.Registry, rate float64, workers, streams, streamChunk int, elapsed time.Duration, asJSON bool) {
	snap := reg.Snapshot()
	ok := snap.Counter(ctrOK)
	errs := snap.Counter(ctrErrors)
	trans := snap.Counter(ctrTransport)
	shed := snap.Counter(ctrShed)
	drops := snap.Counter(ctrDropped)
	mode := fmt.Sprintf("closed-loop, %d workers", workers)
	if rate > 0 {
		mode = fmt.Sprintf("open-loop, %.0f req/s target", rate)
	}
	if streams > 0 {
		mode += fmt.Sprintf(", %d streams × %d-sample chunks", streams, streamChunk)
	}
	throughput := float64(ok) / elapsed.Seconds()
	lat := snap.Summary(sumLatency)
	if asJSON {
		out := map[string]any{
			"mode":       mode,
			"elapsed":    elapsed.String(),
			"completed":  ok,
			"errors":     errs,
			"transport":  trans,
			"shed":       shed,
			"dropped":    drops,
			"throughput": throughput,
		}
		if streams > 0 {
			out["samplesPerSec"] = throughput * float64(streamChunk)
		}
		if lat != nil {
			out["latency"] = lat
		}
		json.NewEncoder(w).Encode(out)
		return
	}
	fmt.Fprintf(w, "rpmload: %s, %v elapsed\n", mode, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "completed %d (%.1f req/s)  errors %d  transport-errors %d  shed %d  dropped %d\n",
		ok, throughput, errs, trans, shed, drops)
	if streams > 0 {
		fmt.Fprintf(w, "ingest %.0f samples/s across %d streams\n", throughput*float64(streamChunk), streams)
	}
	if lat != nil && lat.Count > 0 {
		fmt.Fprintf(w, "latency  mean %v  p50 %v  p90 %v  p99 %v  max %v\n",
			time.Duration(lat.MeanNS).Round(10*time.Microsecond),
			time.Duration(lat.P50NS).Round(10*time.Microsecond),
			time.Duration(lat.P90NS).Round(10*time.Microsecond),
			time.Duration(lat.P99NS).Round(10*time.Microsecond),
			time.Duration(lat.MaxNS).Round(10*time.Microsecond))
	}
	for _, c := range snap.Counters {
		if len(c.Name) > len("load.errors.") && c.Name[:len("load.errors.")] == "load.errors." && c.Name != ctrTransport {
			fmt.Fprintf(w, "  %s: %d\n", c.Name, c.Value)
		}
	}
}
