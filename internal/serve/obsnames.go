package serve

// Canonical observability names the serving layer records into its
// obs.Registry, exported so cmd/rpmserved and the tests read the
// snapshot without string drift (the same convention internal/core uses
// for the training pipeline).
//
//   - CtrRequests / CtrRequestsPredict / CtrRequestsBatch count accepted
//     HTTP requests (total and per endpoint).
//   - CtrBatches and CtrBatchItems each count computed /v1/predict
//     requests, one task apiece, so CtrBatchItems / CtrBatches reads 1.
//     Both remain (with PoolBatch) because the repository benchmark
//     reads them: its serve.batch_size_mean is their ratio.
//   - CtrShed counts /v1/predict requests rejected with 429 because
//     every admission slot was taken (load shedding).
//   - CtrErrPrefix+<code> counts error responses by envelope code
//     (bad_input, too_short, not_found, corrupt_model, …).
//   - CtrReloads counts reload passes; CtrReloadRejected counts files
//     that failed to load during them (corrupt snapshots).
//   - SumLatencyPredict / SumLatencyBatch are per-endpoint latency
//     summaries (count, mean, approximate p50/p90/p99, max).
//   - PoolBatch accounts /v1/predict computation as a one-worker pool:
//     each computed request is one task, its busy time the in-handler
//     Predict call (the benchmark's serve.flush_us_per_item reads it).
//   - SpanServe is the root span (its wall is server uptime); per-
//     endpoint aggregate child spans fold in request handling time.
//     Each request endpoint's span has per-stage aggregate children
//     that split that time into consecutive stages (DESIGN.md §9):
//     SpanPredict into SpanDecode, SpanValidate, SpanAdmit,
//     SpanCompute and SpanEncode; SpanPredictBatch and SpanStream into
//     SpanDecode and SpanCompute. A stage's Count is the number of
//     requests that entered it, and the stages of one endpoint sum to
//     at most its span's wall.
const (
	CtrRequests        = "serve.requests"
	CtrRequestsPredict = "serve.requests.predict"
	CtrRequestsBatch   = "serve.requests.batch"
	CtrBatches         = "serve.batches"
	CtrBatchItems      = "serve.batches.items"
	CtrShed            = "serve.shed"
	CtrReloads         = "serve.reloads"
	CtrReloadRejected  = "serve.reloads.rejected"
	CtrErrPrefix       = "serve.errors."
	// CtrExpired counts /v1/predict requests shed by the deadline check
	// after admission: their context had expired, so they were answered
	// 504 before the model lookup (never looked up, never computed).
	CtrExpired = "serve.flush.expired"
	// CtrFaultsInjected counts faults the chaos injector actually fired
	// across every site (0 in production, where the injector is nil).
	CtrFaultsInjected = "serve.faults.injected"

	// Streaming counters: CtrRequestsStream counts accepted stream
	// appends, CtrStreamSamples the samples those appends carried,
	// CtrStreamEvents the committed class-change events, and
	// CtrStreamsCreated / CtrStreamsClosed the stream lifecycle (their
	// difference is GaugeStreams). The detectors' work (stream.Work)
	// folds in per append: CtrStreamWindows the pattern windows scored,
	// CtrStreamWindowsExact those that passed the margin filter to the
	// exact window evaluator, CtrStreamClassify the classifier calls
	// (a detector classifies only when a pattern's best match moved).
	CtrRequestsStream     = "serve.requests.stream"
	CtrStreamSamples      = "serve.stream.samples"
	CtrStreamEvents       = "serve.stream.events"
	CtrStreamWindows      = "serve.stream.windows"
	CtrStreamWindowsExact = "serve.stream.windows_exact"
	CtrStreamClassify     = "serve.stream.classify"
	CtrStreamsCreated     = "serve.streams.created"
	CtrStreamsClosed      = "serve.streams.closed"

	GaugeModels = "serve.models"
	// GaugeStreams is the number of live streams; GaugeStreamBytes their
	// summed fixed detector footprint (the per-stream memory budget,
	// DESIGN.md §14).
	GaugeStreams     = "serve.streams"
	GaugeStreamBytes = "serve.streams.bytes"

	PoolBatch = "serve.pool.batch"

	SumLatencyPredict = "serve.latency.predict"
	SumLatencyBatch   = "serve.latency.predict_batch"
	// SumLatencyStream is the per-append latency summary of the
	// streaming path.
	SumLatencyStream = "serve.latency.stream_append"

	SpanServe        = "serve"
	SpanPredict      = "predict"
	SpanPredictBatch = "predict_batch"
	SpanReload       = "reload"
	SpanStream       = "stream_append"

	// SpanDecode is reading and decoding the request body (decode.go).
	SpanDecode = "decode"
	// SpanValidate is /v1/predict's series validation.
	SpanValidate = "validate"
	// SpanAdmit is /v1/predict's admission: the slot, the test gate,
	// any injected stall and the deadline check.
	SpanAdmit = "admit"
	// SpanCompute is the model work: on /v1/predict the model lookup and
	// Predict; on /v1/predict:batch validation, lookup and
	// PredictBatchContext; on a stream append chunk validation, stream
	// resolution and Append.
	SpanCompute = "compute"
	// SpanEncode is writing /v1/predict's response.
	SpanEncode = "encode"
)
