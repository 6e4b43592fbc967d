package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"rpm"
	"rpm/internal/obs"
	"rpm/internal/serve"
)

const (
	// serveRate is the light open-loop /v1/predict rate: a lone request
	// usually waits out the batcher's delay, so batching shows here.
	serveRate = 250.0
	// batchSize is the number of series per /v1/predict:batch request.
	batchSize = 128
)

// predictReq is one pre-encoded /v1/predict request with the label the
// in-process classifier loaded from the same snapshot gives.
type predictReq struct {
	model  string
	values []float64
	body   []byte
	want   int
}

// batchReq is one pre-encoded /v1/predict:batch request.
type batchReq struct {
	model  string
	ref    *rpm.Classifier
	series rpm.Dataset
	body   []byte
	want   []int
}

// balanced returns n model indices in seeded order, each block of k
// consecutive indices holding every model once. Any prefix of the
// sequence is then balanced to within one request, so the cost of a
// phase does not depend on how many expensive requests a seed drew
// before the phase ended.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// buildPredictReqs draws n requests: the model by seeded choice (each
// model equally often), then a test series of that model's dataset.
func buildPredictReqs(models []servedModel, rng *rand.Rand, n int) ([]predictReq, error) {
	out := make([]predictReq, n)
	for i, mi := range balanced(rng, n, len(models)) {
		m := models[mi]
		v := m.split.Test[rng.Intn(len(m.split.Test))].Values
		body, err := json.Marshal(map[string]any{"model": m.name, "values": v})
		if err != nil {
			return nil, err
		}
		out[i] = predictReq{model: m.name, values: v, body: body, want: m.ref.Predict(v)}
	}
	return out, nil
}

// buildBatchReqs draws n batch requests of batchSize test series each,
// the model chosen like buildPredictReqs'.
func buildBatchReqs(models []servedModel, rng *rand.Rand, n int) ([]batchReq, error) {
	out := make([]batchReq, n)
	for i, mi := range balanced(rng, n, len(models)) {
		m := models[mi]
		b := batchReq{model: m.name, ref: m.ref}
		series := make([][]float64, batchSize)
		for k := range series {
			in := m.split.Test[rng.Intn(len(m.split.Test))]
			b.series = append(b.series, in)
			series[k] = in.Values
		}
		body, err := json.Marshal(map[string]any{"model": m.name, "series": series})
		if err != nil {
			return nil, err
		}
		b.body, b.want = body, m.ref.PredictBatch(b.series)
		out[i] = b
	}
	return out, nil
}

// predictSender posts reqs[i mod len] to /v1/predict and checks the
// served label against the in-process reference.
func predictSender(c *http.Client, url string, reqs []predictReq) sender {
	return func(ctx context.Context, i int) error {
		r := &reqs[i%len(reqs)]
		b, err := post(ctx, c, url+"/v1/predict", r.body)
		if err != nil {
			return err
		}
		var out struct {
			Label int `json:"label"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			return fmt.Errorf("decoding predict response: %w", err)
		}
		if out.Label != r.want {
			return fmt.Errorf("model %s: served label %d, in-process Predict %d", r.model, out.Label, r.want)
		}
		return nil
	}
}

// batchSender posts reqs[i mod len] to /v1/predict:batch and checks
// every served label.
func batchSender(c *http.Client, url string, reqs []batchReq) sender {
	return func(ctx context.Context, i int) error {
		r := &reqs[i%len(reqs)]
		b, err := post(ctx, c, url+"/v1/predict:batch", r.body)
		if err != nil {
			return err
		}
		var out struct {
			Labels []int `json:"labels"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			return fmt.Errorf("decoding batch response: %w", err)
		}
		if len(out.Labels) != len(r.want) {
			return fmt.Errorf("model %s: %d labels for %d series", r.model, len(out.Labels), len(r.want))
		}
		for k, l := range out.Labels {
			if l != r.want[k] {
				return fmt.Errorf("model %s series %d: served label %d, in-process %d", r.model, k, l, r.want[k])
			}
		}
		return nil
	}
}

// snapshot reads the server's instrumentation in a traced run (an
// untraced run reads nothing), recording a problem and returning an
// empty snapshot when it cannot.
func snapshot(ctx context.Context, cfg config, res *result, srv *server) *obs.Snapshot {
	if !cfg.trace {
		return nil
	}
	s, err := srv.obs(ctx)
	if err != nil {
		res.problemf("reading /debug/obs: %v", err)
		return &obs.Snapshot{}
	}
	return s
}

func runServe(cfg config) (res *result, err error) {
	res = newResult()
	models, srv, setup, err := setupServed(cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	rng := rand.New(rand.NewSource(cfg.seed))
	reqs, err := buildPredictReqs(models, rng, 2048)
	if err != nil {
		return nil, err
	}
	batches, err := buildBatchReqs(models, rng, 128)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	predict := predictSender(client, srv.base, reqs)

	// Warm-up: connections, caches and the batcher's pools.
	res.account("warm-up", closedLoop(ctx, deadline(cfg, 0.05), conns, predict))

	// Phase 1: light open loop.
	o0 := snapshot(ctx, cfg, res, srv)
	n := int(serveRate * cfg.seconds * 0.2)
	if n < tailSamples(0.99) {
		n = tailSamples(0.99)
	}
	open := openLoop(ctx, serveRate, n, conns, predict)
	o1 := snapshot(ctx, cfg, res, srv)
	res.account("open loop", open)
	lat := durs(open.lat)

	// Phase 2: closed loop on nproc connections. The traced run repeats it
	// with /debug/obs reads around it; the ratio is the tracing overhead.
	var plainRPS float64
	if cfg.trace {
		plain := closedLoop(ctx, deadline(cfg, 0.15), conns, predict)
		res.account("closed loop", plain)
		plainRPS = frac(float64(plain.ok), plain.elapsed.Seconds())
	}
	c0 := snapshot(ctx, cfg, res, srv)
	cpu0 := srv.cpu()
	closed := closedLoop(ctx, deadline(cfg, 0.25), conns, predict)
	cpu1 := srv.cpu()
	c1 := snapshot(ctx, cfg, res, srv)
	res.account("closed loop", closed)
	rps := frac(float64(closed.ok), closed.elapsed.Seconds())

	// Phase 3: closed loop on the batch endpoint (bypasses the batcher).
	b0 := snapshot(ctx, cfg, res, srv)
	cpu2 := srv.cpu()
	batch := closedLoop(ctx, deadline(cfg, 0.3), conns, batchSender(client, srv.base, batches))
	cpu3 := srv.cpu()
	b1 := snapshot(ctx, cfg, res, srv)
	res.account("batch", batch)
	batchRate := frac(float64(batch.ok*batchSize), batch.elapsed.Seconds())
	peak := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))

	res.detailf("open loop rate=%.0f/s sent=%d p50=%.4fms p99=%.4fms beyond_p99=%d lag_p99=%.4fms",
		serveRate, len(open.lat)+int(open.failed), percentile(lat, 0.5), percentile(lat, 0.99), beyond(lat, 0.99), percentile(durs(open.lag), 0.99))
	res.detailf("closed loop conns=%d requests=%d predict_rps=%.1f server_cpu_s=%.2f", conns, closed.ok, rps, (cpu1 - cpu0).Seconds())
	res.detailf("batch conns=%d requests=%d batch_series_per_s=%.1f server_cpu_s=%.2f", conns, batch.ok, batchRate, (cpu3 - cpu2).Seconds())
	if !cfg.trace {
		res.put("setup_s", setup)
		res.put("latency_p50_ms", percentile(lat, 0.5))
		res.put("throughput_per_cpu_s", frac(float64(closed.ok), (cpu1-cpu0).Seconds()))
		res.put("batch_throughput_per_cpu_s", frac(float64(batch.ok*batchSize), (cpu3-cpu2).Seconds()))
		res.put("peak_rss_mb", peak)
		return res, nil
	}

	res.startLayers()
	open0, closed0, batch0 := obsDelta{o0, o1}, obsDelta{c0, c1}, obsDelta{b0, b1}
	handler := open0.summaryMean(serve.SumLatencyPredict)
	res.put("serve.handler_mean_ms", handler)
	res.put("http.overhead_mean_ms", mean(durs(open.rtt))-handler)
	res.put("bench.gen_lag_ms_p99", percentile(durs(open.lag), 0.99))
	res.put("bench.latency_p99_ms", percentile(lat, 0.99))
	perModel := map[string][]float64{}
	for k, i := range open.index {
		m := reqs[i%len(reqs)].model
		perModel[m] = append(perModel[m], ms(open.lat[k]))
	}
	res.put("client.short_p50_ms", percentile(perModel["short"], 0.5))
	res.put("client.long_p50_ms", percentile(perModel["long"], 0.5))
	items := closed0.counter(serve.CtrBatchItems)
	res.put("serve.batch_size_mean", frac(items, closed0.counter(serve.CtrBatches)))
	busy := closed0.poolBusy(serve.PoolBatch)
	res.put("serve.flush_busy_frac", frac(busy.Seconds(), closed.elapsed.Seconds()))
	res.put("serve.flush_us_per_item", frac(float64(busy)/1e3, items))
	res.put("serve.batch_handler_mean_ms", batch0.summaryMean(serve.SumLatencyBatch))
	all := obsDelta{o0, b1}
	res.put("serve.shed", all.counter(serve.CtrShed))
	res.put("serve.expired", all.counter(serve.CtrExpired))
	res.put("bench.trace_overhead_frac", frac(plainRPS, rps)-1)
	predictReplay(res, reqs, batches, models)
	return res, nil
}

// predictReplay times in-process Predict on the loaded snapshots over
// the request sequence (one goroutine) and PredictBatch over the batch
// requests.
func predictReplay(res *result, reqs []predictReq, batches []batchReq, models []servedModel) {
	ref := map[string]*rpm.Classifier{}
	for _, m := range models {
		ref[m.name] = m.ref
	}
	var lat []float64
	for pass := 0; pass < 2; pass++ {
		for _, r := range reqs {
			c := ref[r.model]
			t0 := time.Now()
			c.Predict(r.values)
			lat = append(lat, float64(time.Since(t0))/1e3)
		}
	}
	res.put("core.predict_us_p50", percentile(lat, 0.5))
	var batchWall time.Duration
	var series float64
	for _, b := range batches {
		t0 := time.Now()
		b.ref.PredictBatch(b.series)
		batchWall += time.Since(t0)
		series += float64(len(b.series))
	}
	res.put("core.predict_batch_us_per_series", frac(float64(batchWall)/1e3, series))
}
