package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpm"
	"rpm/internal/serve"
	"rpm/internal/stream"
)

const (
	// numStreams keeps the summed detector state (about 17 KB per
	// SynCinCECG stream) above a core's 2 MB L2 cache.
	numStreams = 256
	// streamChunk is the samples per append in the open and closed loops;
	// bulkChunk is the samples per append of the bulk phase.
	streamChunk = 64
	bulkChunk   = 2048
	// appendRate is the fixed open-loop append rate.
	appendRate = 500.0
)

// feed is one stream's input: the concatenated SynCinCECG test series,
// started at a seeded series, appended in order and wrapping around.
type feed struct {
	id     string
	mu     sync.Mutex // serializes appends, so chunks arrive in order
	data   []float64
	seen   int   // samples the server accepted
	chunks []int // sizes of the accepted appends, in order
	buf    []byte
}

// samples returns n samples of the stream's input starting at from.
func (f *feed) samples(from, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = f.data[(from+k)%len(f.data)]
	}
	return out
}

// appended is everything the server accepted for the stream.
func (f *feed) appended() []float64 { return f.samples(0, f.seen) }

// newFeeds builds the streams' inputs from the model's test series.
func newFeeds(test rpm.Dataset, rng *rand.Rand) []*feed {
	var concat []float64
	for _, in := range test {
		concat = append(concat, in.Values...)
	}
	feeds := make([]*feed, numStreams)
	for k := range feeds {
		start := rng.Intn(len(test)) * len(test[0].Values)
		data := append(append([]float64(nil), concat[start:]...), concat[:start]...)
		feeds[k] = &feed{id: "s" + strconv.Itoa(k), data: data}
	}
	return feeds
}

// appendSender appends chunk-sized pieces to the streams round-robin
// (request i goes to stream i mod numStreams) and checks that the server
// counted exactly the samples it was sent.
func appendSender(c *http.Client, url, model string, feeds []*feed, chunk int) sender {
	return func(ctx context.Context, i int) error {
		f := feeds[i%len(feeds)]
		f.mu.Lock()
		defer f.mu.Unlock()
		f.buf = append(f.buf[:0], `{"model":"`...)
		f.buf = append(f.buf, model...)
		f.buf = append(f.buf, `","values":[`...)
		for k, v := range f.samples(f.seen, chunk) {
			if k > 0 {
				f.buf = append(f.buf, ',')
			}
			f.buf = strconv.AppendFloat(f.buf, v, 'g', -1, 64)
		}
		f.buf = append(f.buf, "]}"...)
		b, err := post(ctx, c, url+"/v1/streams/"+f.id, f.buf)
		if err != nil {
			return err
		}
		var out struct {
			Seen int `json:"seen"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			return fmt.Errorf("decoding append response: %w", err)
		}
		f.seen += chunk
		f.chunks = append(f.chunks, chunk)
		if out.Seen != f.seen {
			return fmt.Errorf("stream %s: server saw %d samples, sent %d", f.id, out.Seen, f.seen)
		}
		return nil
	}
}

// checkStreams compares each stream's server state with the in-process
// classifier: the committed label must equal Predict over every sample
// appended to the stream. It returns each stream's committed event
// count.
func checkStreams(ctx context.Context, res *result, c *http.Client, url string, ref *rpm.Classifier, feeds []*feed) []int {
	type state struct {
		Seen   int  `json:"seen"`
		Label  *int `json:"label"`
		Events int  `json:"events"`
	}
	states := make([]*state, len(feeds))
	for i, f := range feeds {
		res.attempted++
		b, err := get(ctx, c, url+"/v1/streams/"+f.id)
		if err == nil {
			states[i] = &state{}
			if err = json.Unmarshal(b, states[i]); err != nil {
				states[i] = nil
			}
		}
		if err != nil {
			res.failed++
			res.problemf("stream %s state: %v", f.id, err)
		}
	}
	// Predict over whole stream histories is the slow part: spread it
	// over the cores.
	want := make([]int, len(feeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(feeds); i = int(next.Add(1) - 1) {
				want[i] = ref.Predict(feeds[i].appended())
			}
		}()
	}
	wg.Wait()
	events := make([]int, len(feeds))
	for i, st := range states {
		if st == nil {
			continue
		}
		events[i] = st.Events
		if f := feeds[i]; st.Seen != f.seen || st.Label == nil || *st.Label != want[i] {
			res.failed++
			got := "none"
			if st.Label != nil {
				got = strconv.Itoa(*st.Label)
			}
			res.problemf("stream %s: seen %d label %s, want seen %d label %d", f.id, st.Seen, got, f.seen, want[i])
		}
	}
	return events
}

func runStream(cfg config) (res *result, err error) {
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
	var long servedModel
	for _, m := range models {
		if m.name == "long" {
			long = m
		}
	}
	feeds := newFeeds(long.split.Test, rand.New(rand.NewSource(cfg.seed)))
	ctx := context.Background()
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	small := appendSender(client, srv.base, long.name, feeds, streamChunk)

	// Warm-up: create every stream and fill its detector past warm-up.
	warm := closedLoop(ctx, deadline(cfg, 0.05), conns, small)
	res.account("warm-up", warm)

	// Phase 1: open loop at the fixed append rate.
	o0 := snapshot(ctx, cfg, res, srv)
	n := int(appendRate * cfg.seconds * 0.2)
	if n < tailSamples(0.99) {
		n = tailSamples(0.99)
	}
	open := openLoop(ctx, appendRate, n, conns, small)
	o1 := snapshot(ctx, cfg, res, srv)
	res.account("open loop", open)
	lat := durs(open.lat)

	// Phase 2: closed loop on nproc connections; the traced run repeats it
	// with a /debug/obs read after it for the tracing overhead.
	var plainRate float64
	if cfg.trace {
		plain := closedLoop(ctx, deadline(cfg, 0.15), conns, small)
		res.account("closed loop", plain)
		plainRate = frac(float64(plain.ok*streamChunk), plain.elapsed.Seconds())
	}
	cpu0 := srv.cpu()
	closed := closedLoop(ctx, deadline(cfg, 0.3), conns, small)
	cpu1 := srv.cpu()
	c1 := snapshot(ctx, cfg, res, srv)
	res.account("closed loop", closed)
	ingest := frac(float64(closed.ok*streamChunk), closed.elapsed.Seconds())

	// Phase 3: closed loop with bulk chunks.
	cpu2 := srv.cpu()
	bulk := closedLoop(ctx, deadline(cfg, 0.25), conns,
		appendSender(client, srv.base, long.name, feeds, bulkChunk))
	cpu3 := srv.cpu()
	res.account("bulk", bulk)
	bulkRate := frac(float64(bulk.ok*bulkChunk), bulk.elapsed.Seconds())
	peak := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	events := checkStreams(ctx, res, client, srv.base, long.ref, feeds)
	total := 0
	for _, e := range events {
		total += e
	}

	res.detailf("streams=%d chunk=%d bulk_chunk=%d events=%d", numStreams, streamChunk, bulkChunk, total)
	res.detailf("open loop rate=%.0f/s sent=%d p50=%.4fms p99=%.4fms beyond_p99=%d lag_p99=%.4fms",
		appendRate, len(open.lat)+int(open.failed), percentile(lat, 0.5), percentile(lat, 0.99), beyond(lat, 0.99), percentile(durs(open.lag), 0.99))
	res.detailf("closed loop conns=%d appends=%d ingest_samples_per_s=%.0f server_cpu_s=%.2f", conns, closed.ok, ingest, (cpu1 - cpu0).Seconds())
	res.detailf("bulk conns=%d appends=%d bulk_samples_per_s=%.0f server_cpu_s=%.2f", conns, bulk.ok, bulkRate, (cpu3 - cpu2).Seconds())
	if !cfg.trace {
		res.put("setup_s", setup)
		res.put("latency_p50_ms", percentile(lat, 0.5))
		res.put("throughput_per_cpu_s", frac(float64(closed.ok*streamChunk), (cpu1-cpu0).Seconds()))
		res.put("batch_throughput_per_cpu_s", frac(float64(bulk.ok*bulkChunk), (cpu3-cpu2).Seconds()))
		res.put("peak_rss_mb", peak)
		return res, nil
	}

	res.startLayers()
	handler := obsDelta{o0, o1}.summaryMean(serve.SumLatencyStream)
	res.put("serve.stream_handler_mean_ms", handler)
	res.put("http.overhead_mean_ms", mean(durs(open.rtt))-handler)
	res.put("bench.gen_lag_ms_p99", percentile(durs(open.lag), 0.99))
	res.put("bench.latency_p99_ms", percentile(lat, 0.99))
	res.put("serve.stream_bytes_per_stream", frac(float64(c1.Gauge(serve.GaugeStreamBytes)), float64(c1.Gauge(serve.GaugeStreams))))
	res.put("serve.stream_events", float64(total))
	res.put("serve.shed", obsDelta{o0, c1}.counter(serve.CtrShed))
	res.put("bench.trace_overhead_frac", frac(plainRate, ingest)-1)
	replayStreams(res, long.ref, feeds[:replayStreamCount], events)
	return res, nil
}

// replayStreamCount is how many streams the traced run replays in
// process: all 256 would take longer than the run.
const replayStreamCount = 32

// replayStreams feeds each stream's accepted chunks, in order and with
// the same boundaries, through an in-process Detector configured like
// the server's, timing Detector.Append. Each replay must commit the
// number of events the server reported for that stream.
func replayStreams(res *result, ref *rpm.Classifier, feeds []*feed, serverEvents []int) {
	pats := ref.Patterns()
	raw := make([][]float64, len(pats))
	for i, p := range pats {
		raw[i] = p.Values
	}
	model, err := stream.NewModel(raw, ref)
	if err != nil {
		res.problemf("stream model: %v", err)
		return
	}
	var wall time.Duration
	var samples float64
	for i, f := range feeds {
		data := f.appended()
		det := model.NewDetector(stream.Config{ConfirmWindows: 1})
		pos := 0
		t0 := time.Now()
		for _, n := range f.chunks {
			det.Append(data[pos : pos+n])
			pos += n
		}
		wall += time.Since(t0)
		samples += float64(pos)
		if det.EventSeq() != serverEvents[i] {
			res.problemf("stream %s: in-process replay committed %d events, server %d", f.id, det.EventSeq(), serverEvents[i])
		}
	}
	res.put("stream.append_ns_per_sample", frac(float64(wall), samples))
	res.put("stream.replay_samples", samples)
}
