package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rpm"
	"rpm/internal/faults"
	"rpm/internal/obs"
	serveclient "rpm/internal/serve/client"
	"rpm/internal/stream"
)

// Unexported sentinels for model-resolution failures; mapped to HTTP
// statuses by errorStatus.
var (
	errNoModels       = errors.New("no models loaded")
	errUnknownModel   = errors.New("unknown model")
	errAmbiguousModel = errors.New("no default model")
	errDraining       = errors.New("server draining")
)

// Config configures a Server. The zero value of each field selects the
// documented default.
type Config struct {
	// ModelDir is the directory of *.json classifier snapshots (written
	// by Classifier.Save / rpmcli -save). Required.
	ModelDir string
	// QueueSize bounds the /v1/predict requests admitted at once; a
	// request that finds every slot taken is shed with 429 + Retry-After
	// (default 256).
	QueueSize int
	// Workers bounds the predict fan-out of each /v1/predict:batch call
	// (rpm.SetWorkers on every loaded model): 0 = all cores (default),
	// 1 = sequential. A /v1/predict request runs on its own goroutine.
	Workers int
	// RequestTimeout is the per-request deadline covering admission and
	// prediction (default 5s). Requests also honor the client's
	// disconnect via the http request context.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; larger payloads get 413
	// (default 8 MiB).
	MaxBodyBytes int64
	// MaxStreams caps live streams; creation beyond it is shed with
	// 429 + Retry-After (default 10000, -1 = unbounded).
	MaxStreams int
	// MaxStreamChunk caps the samples one stream append may carry;
	// larger chunks get 413 (default 8192).
	MaxStreamChunk int
	// Stream configures every stream's change detector: the hysteresis
	// depth, the post-commit refractory period and the retained event
	// history (the SSE Last-Event-ID replay horizon). Zero fields take
	// stream.Config's defaults (3, 0 and 256).
	Stream stream.Config
	// Faults, usually nil (chaos off), injects deterministic failures at
	// the named sites threaded through the stack: model-load errors,
	// predict stalls, full admission, deadline exhaustion and response-
	// write aborts (see internal/faults and DESIGN.md §13). The nil path
	// costs one nil check per site, mirroring the obs convention.
	Faults *faults.Injector
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxStreams == 0 {
		c.MaxStreams = 10000
	}
	if c.MaxStreamChunk <= 0 {
		c.MaxStreamChunk = 8192
	}
	return c
}

// Server is the rpmserved HTTP inference server: a model Store, a
// bounded admission for /v1/predict, and a handler set (see Handler).
// Construct with New, serve via Handler, shut down with Close.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	store   *Store
	streams *stream.Registry
	faults  *faults.Injector
	mux     *http.ServeMux

	// admit holds one token per /v1/predict request being computed; its
	// capacity, QueueSize, is the admission bound.
	admit chan struct{}
	// predictGate, when non-nil, holds every admitted /v1/predict before
	// its model is resolved: the handler sends a fresh release channel
	// (announcing it is admitted and stalled) and waits until that
	// channel is closed. It exists for tests that need requests held
	// between admission and prediction; it is nil in production.
	predictGate chan chan struct{}
	// refDecode, when true, decodes every request body with
	// encoding/json alone, skipping the canonical pass (decode.go). It
	// exists for the differential fuzz target, which compares the two
	// paths through the handlers; it is false in production.
	refDecode bool

	draining atomic.Bool
	inflight sync.WaitGroup

	requests   *obs.Counter
	reqPredict *obs.Counter
	reqBatch   *obs.Counter
	reqStream  *obs.Counter
	shed       *obs.Counter
	injected   *obs.Counter
	expired    *obs.Counter
	tasks      *obs.Counter
	taskItems  *obs.Counter
	taskPool   *obs.Pool

	streamSamples  *obs.Counter
	streamEvents   *obs.Counter
	streamWindows  *obs.Counter
	streamExact    *obs.Counter
	streamClassify *obs.Counter
	streamsMade    *obs.Counter
	streamsClosed  *obs.Counter
	gaugeStreams   *obs.Gauge
	gaugeStrBytes  *obs.Gauge

	latPredict *obs.Summary
	latBatch   *obs.Summary
	latStream  *obs.Summary

	spanPredict *obs.Span
	spanBatch   *obs.Span
	spanReload  *obs.Span
	spanStream  *obs.Span

	// Per-stage aggregate children of spanPredict, spanBatch and
	// spanStream (obsnames.go): each handler folds its stages' wall
	// time in with a stageClock.
	predictDecode, predictValidate, predictAdmit, predictCompute, predictEncode *obs.Span
	batchDecode, batchCompute                                                   *obs.Span
	streamDecode, streamCompute                                                 *obs.Span
}

// stageClock splits one request's handling time into consecutive
// stages: enter ends the current stage, folding its wall time into its
// span, and starts the next; enter(nil) ends the last one. A request
// that fails inside a stage leaves that stage's span holding the time
// up to the handler's return, its error write included. It lives on
// the handler's stack and allocates nothing.
type stageClock struct {
	last  time.Time
	stage *obs.Span
}

func (c *stageClock) enter(next *obs.Span) {
	now := time.Now()
	c.stage.Add(now.Sub(c.last))
	c.last, c.stage = now, next
}

// New builds a Server over cfg.ModelDir, performing the initial load.
// An unreadable model directory is an error; corrupt snapshot files are
// not (they are reported by Reload and skipped — readiness then depends
// on at least one clean model, see /readyz).
func New(cfg Config) (*Server, error) {
	if cfg.ModelDir == "" {
		return nil, fmt.Errorf("serve: Config.ModelDir is required")
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		store:      NewStore(cfg.ModelDir, cfg.Workers, reg, cfg.Faults),
		streams:    stream.NewRegistry(cfg.MaxStreams),
		faults:     cfg.Faults,
		admit:      make(chan struct{}, cfg.QueueSize),
		requests:   reg.Counter(CtrRequests),
		reqPredict: reg.Counter(CtrRequestsPredict),
		reqBatch:   reg.Counter(CtrRequestsBatch),
		reqStream:  reg.Counter(CtrRequestsStream),
		shed:       reg.Counter(CtrShed),
		injected:   reg.Counter(CtrFaultsInjected),
		expired:    reg.Counter(CtrExpired),
		tasks:      reg.Counter(CtrBatches),
		taskItems:  reg.Counter(CtrBatchItems),
		taskPool:   reg.Pool(PoolBatch),

		streamSamples:  reg.Counter(CtrStreamSamples),
		streamEvents:   reg.Counter(CtrStreamEvents),
		streamWindows:  reg.Counter(CtrStreamWindows),
		streamExact:    reg.Counter(CtrStreamWindowsExact),
		streamClassify: reg.Counter(CtrStreamClassify),
		streamsMade:    reg.Counter(CtrStreamsCreated),
		streamsClosed:  reg.Counter(CtrStreamsClosed),
		gaugeStreams:   reg.Gauge(GaugeStreams),
		gaugeStrBytes:  reg.Gauge(GaugeStreamBytes),

		latPredict: reg.Summary(SumLatencyPredict),
		latBatch:   reg.Summary(SumLatencyBatch),
		latStream:  reg.Summary(SumLatencyStream),
	}
	root := reg.StartSpan(SpanServe) // never ended: wall reads as uptime
	s.spanPredict = root.Child(SpanPredict)
	s.spanBatch = root.Child(SpanPredictBatch)
	s.spanReload = root.Child(SpanReload)
	s.spanStream = root.Child(SpanStream)
	s.predictDecode = s.spanPredict.Child(SpanDecode)
	s.predictValidate = s.spanPredict.Child(SpanValidate)
	s.predictAdmit = s.spanPredict.Child(SpanAdmit)
	s.predictCompute = s.spanPredict.Child(SpanCompute)
	s.predictEncode = s.spanPredict.Child(SpanEncode)
	s.batchDecode = s.spanBatch.Child(SpanDecode)
	s.batchCompute = s.spanBatch.Child(SpanCompute)
	s.streamDecode = s.spanStream.Child(SpanDecode)
	s.streamCompute = s.spanStream.Child(SpanCompute)
	if _, err := s.store.Reload(); err != nil {
		return nil, err
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/predict", s.guarded(s.handlePredict))
	s.mux.HandleFunc("POST /v1/predict:batch", s.guarded(s.handlePredictBatch))
	s.mux.HandleFunc("GET /v1/models", s.guarded(s.handleModels))
	s.mux.HandleFunc("POST /admin/reload", s.guarded(s.handleReload))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/streams", s.guarded(s.handleStreamList))
	s.mux.HandleFunc("POST /v1/streams/{id}", s.guarded(s.handleStreamAppend))
	s.mux.HandleFunc("GET /v1/streams/{id}", s.guarded(s.handleStreamGet))
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.guarded(s.handleStreamDelete))
	s.mux.HandleFunc("GET /v1/streams/{id}/events", s.guarded(s.handleStreamEvents))
	return s, nil
}

// Handler returns the server's HTTP handler. The debug surface
// (/debug/obs, expvar, pprof) is mounted by cmd/rpmserved, not here, so
// embedding processes choose what to expose.
func (s *Server) Handler() http.Handler { return s.mux }

// Obs returns the server's observability registry: the serving layer's
// serve.* counters, latency summaries, predict pool and uptime span.
func (s *Server) Obs() *obs.Registry { return s.reg }

// Store returns the server's model store.
func (s *Server) Store() *Store { return s.store }

// Reload re-scans the model directory (also reachable via
// POST /admin/reload and, in cmd/rpmserved, SIGHUP).
func (s *Server) Reload() (ReloadReport, error) {
	start := time.Now()
	rep, err := s.store.Reload()
	s.spanReload.Add(time.Since(start))
	return rep, err
}

// BeginDrain flips the server into draining mode without stopping
// anything: new requests are rejected with 503 "draining", /readyz
// answers 503 so load balancers take the instance out of rotation, and
// /healthz stays 200 — the process is alive and still answering its
// in-flight work. Open SSE event feeds are woken and ended (their
// subscriber channels close) so http.Server.Shutdown is not held
// hostage by long-lived connections; the streams themselves stay
// readable until Close. Call it the moment shutdown is decided
// (cmd/rpmserved does, on SIGTERM, before http.Server.Shutdown); Close
// implies it. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.streams.Drain()
}

// Draining reports whether BeginDrain (or Close) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the server: new requests are rejected with 503, the
// in-flight handlers (admitted predictions among them) finish, then the
// streams close. Call after (or instead of) http.Server.Shutdown; ctx
// bounds the wait.
func (s *Server) Close(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.streams.Close()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Streams returns the server's live-stream registry; the package's tests
// read it to check stream lifecycle and byte accounting.
func (s *Server) Streams() *stream.Registry { return s.streams }

// ---------------------------------------------------------------------------
// Request/response shapes
//
// The predict, batch, stream-append and error bodies are the client
// package's exported types (serveclient.PredictRequest, BatchRequest,
// PredictResult, BatchResult, ErrorEnvelope): one declaration shared by
// both sides of the wire. Only the bodies no client reads live here.

type modelInfo struct {
	Name        string    `json:"name"`
	Version     int       `json:"version"`
	File        string    `json:"file"`
	LoadedAt    time.Time `json:"loadedAt"`
	NumPatterns int       `json:"numPatterns"`
	Classes     []int     `json:"classes,omitempty"`
}

// ---------------------------------------------------------------------------
// Error mapping (the PR-2 taxonomy → HTTP statuses)

// errorStatus maps an error to its HTTP status and stable envelope code.
func errorStatus(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, errUnknownModel), errors.Is(err, errUnknownStream):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, stream.ErrTooManyStreams):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, errChunkTooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, stream.ErrClosed):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, errNoModels):
		return http.StatusServiceUnavailable, "no_models"
	case errors.Is(err, errAmbiguousModel):
		return http.StatusBadRequest, "bad_input"
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, rpm.ErrTooShort):
		return http.StatusUnprocessableEntity, "too_short"
	case errors.Is(err, rpm.ErrBadInput):
		return http.StatusBadRequest, "bad_input"
	case errors.Is(err, rpm.ErrCorruptModel):
		return http.StatusServiceUnavailable, "corrupt_model"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	default: // rpm.ErrInternal and anything unclassified
		return http.StatusInternalServerError, "internal"
	}
}

// writeError emits the JSON error envelope and bumps the per-code error
// counter. 429 responses carry Retry-After so well-behaved clients back
// off a beat instead of hammering a saturated server.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.reg.Counter(CtrErrPrefix + code).Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(serveclient.ErrorEnvelope{Error: serveclient.APIError{Code: code, Status: status, Message: msg}})
}

func (s *Server) writeErrorFor(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	s.writeError(w, status, code, err.Error())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(v)
}

// writeResult writes a successful prediction response. It is the one
// write path with a fault site: faults.SiteWriteFail aborts the
// connection via http.ErrAbortHandler — the client sees a transport
// error, never a truncated or wrong 200 body — which is how a client
// hanging up at write time looks from inside the handler.
func (s *Server) writeResult(w http.ResponseWriter, v any) {
	if s.faults.Fire(faults.SiteWriteFail) {
		s.injected.Inc()
		panic(http.ErrAbortHandler)
	}
	writeJSON(w, v)
}

// ---------------------------------------------------------------------------
// Handlers

// guarded wraps a handler with the shared request plumbing: in-flight
// accounting (so Close can drain), the draining gate, the request
// counter, and panic containment — a handler bug answers 500 instead of
// killing the process, mirroring rpm's guard shim. http.ErrAbortHandler
// is re-panicked: it is net/http's sanctioned "drop this connection"
// signal (the injected response-write failure uses it), and swallowing
// it would turn an aborted write into a trailing 500 on a dead wire.
func (s *Server) guarded(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Done()
		if s.draining.Load() {
			s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
			return
		}
		s.requests.Inc()
		defer func() {
			if rec := recover(); rec != nil {
				if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(rec)
				}
				s.writeError(w, http.StatusInternalServerError, "internal", fmt.Sprintf("recovered panic: %v", rec))
			}
		}()
		fn(w, r)
	}
}

// handlePredict serves POST /v1/predict: one series in, one label out,
// computed on the handler's own goroutine once the request holds an
// admission slot.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	clock := stageClock{last: time.Now(), stage: s.predictDecode}
	start := clock.last
	defer func() {
		clock.enter(nil)
		d := clock.last.Sub(start)
		s.latPredict.Observe(d)
		s.spanPredict.Add(d)
	}()
	s.reqPredict.Inc()
	var req serveclient.PredictRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeErrorFor(w, err)
		return
	}
	clock.enter(s.predictValidate)
	if err := rpm.ValidateSeries(req.Values); err != nil {
		s.writeErrorFor(w, err)
		return
	}
	clock.enter(s.predictAdmit)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// Injected deadline exhaustion (faults.SiteDeadline): the request's
	// context expires before admission, so the deadline check below must
	// answer 504 without looking the model up or computing anything.
	if s.faults.Fire(faults.SiteDeadline) {
		s.injected.Inc()
		cancel()
	}
	if !s.tryAdmit() {
		s.shed.Inc()
		s.writeError(w, http.StatusTooManyRequests, "overloaded",
			fmt.Sprintf("admission full (%d requests in flight)", s.cfg.QueueSize))
		return
	}
	defer func() { <-s.admit }()
	if s.predictGate != nil {
		release := make(chan struct{})
		s.predictGate <- release
		<-release
	}
	// Injected predict stall / latency spike (faults.SitePredictDelay):
	// sleeps while holding the slot, before the deadline check, so the
	// request ages exactly as it would behind a genuinely slow server.
	if d := s.faults.Sleep(faults.SitePredictDelay); d > 0 {
		s.injected.Inc()
	}
	// A request whose deadline passed (or whose client left) is answered
	// with its context error before the model lookup: never looked up,
	// never computed.
	if err := ctx.Err(); err != nil {
		s.expired.Inc()
		s.writeErrorFor(w, err)
		return
	}
	// Resolved once, after admission, so a reload redirects the very next
	// computation.
	clock.enter(s.predictCompute)
	m, err := s.store.Get(req.Model)
	if err != nil {
		s.writeErrorFor(w, err)
		return
	}
	t0 := time.Now()
	label := m.clf.Predict(req.Values)
	d := time.Since(t0)
	s.tasks.Inc()
	s.taskItems.Inc()
	s.taskPool.WorkerTask(0, d)
	s.taskPool.RunDone(1, d)
	clock.enter(s.predictEncode)
	s.writeResult(w, serveclient.PredictResult{Model: m.Name, Version: m.Version, Label: label})
}

// tryAdmit takes an admission slot without blocking; false means all
// QueueSize slots are taken (or faults.SiteAdmitFull simulates that).
func (s *Server) tryAdmit() bool {
	if s.faults.Fire(faults.SiteAdmitFull) {
		s.injected.Inc()
		return false
	}
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		return false
	}
}

// handlePredictBatch serves POST /v1/predict:batch: the whole payload
// goes to one PredictBatchContext call, fanned out over Config.Workers,
// under the request deadline.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	clock := stageClock{last: time.Now(), stage: s.batchDecode}
	start := clock.last
	defer func() {
		clock.enter(nil)
		d := clock.last.Sub(start)
		s.latBatch.Observe(d)
		s.spanBatch.Add(d)
	}()
	s.reqBatch.Inc()
	var req serveclient.BatchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeErrorFor(w, err)
		return
	}
	clock.enter(s.batchCompute)
	if len(req.Series) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_input", "empty series batch")
		return
	}
	for i, v := range req.Series {
		if err := rpm.ValidateSeries(v); err != nil {
			status, code := errorStatus(err)
			s.writeError(w, status, code, fmt.Sprintf("series %d: %v", i, err))
			return
		}
	}
	m, err := s.store.Get(req.Model)
	if err != nil {
		s.writeErrorFor(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	ds := make(rpm.Dataset, len(req.Series))
	for i, v := range req.Series {
		ds[i] = rpm.Instance{Values: v}
	}
	labels, err := m.clf.PredictBatchContext(ctx, ds)
	if err != nil {
		s.writeErrorFor(w, err)
		return
	}
	clock.enter(nil)
	s.writeResult(w, serveclient.BatchResult{Model: m.Name, Version: m.Version, Labels: labels})
}

// handleModels serves GET /v1/models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	models := s.store.Models()
	out := make([]modelInfo, 0, len(models))
	for _, m := range models {
		out = append(out, modelInfo{
			Name:        m.Name,
			Version:     m.Version,
			File:        m.Path,
			LoadedAt:    m.LoadedAt,
			NumPatterns: m.NumPatterns,
			Classes:     m.Classes,
		})
	}
	writeJSON(w, map[string]any{"models": out})
}

// handleReload serves POST /admin/reload.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Reload()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	writeJSON(w, rep)
}

// handleHealthz reports process liveness (200 even while draining —
// the process is alive and finishing work).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness to take traffic: at least one model
// loaded and not draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	if s.store.Len() == 0 {
		s.writeError(w, http.StatusServiceUnavailable, "no_models", "no models loaded")
		return
	}
	writeJSON(w, map[string]any{"status": "ready", "models": s.store.Len()})
}
