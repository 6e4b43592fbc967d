package serve

// End-to-end tests of the streaming endpoints (DESIGN.md §14): happy
// path with equivalence against an in-process detector, the per-stream
// error taxonomy (404/413/429/400/503), the SSE event feed with
// Last-Event-ID resume, and drain semantics with open feeds.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"rpm"
	serveclient "rpm/internal/serve/client"
	"rpm/internal/stream"
)

type sseEvent struct {
	id    int
	kind  string
	event stream.Event
}

// readSSE consumes one SSE event (id/event/data frame group) from the
// feed. ok=false means the feed ended; a non-nil error means a frame
// did not parse. No *testing.T here: this runs on reader goroutines.
func readSSE(sc *bufio.Scanner) (ev sseEvent, ok bool, err error) {
	got := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if got {
				return ev, true, nil
			}
		case strings.HasPrefix(line, "id: "):
			if _, err := fmt.Sscanf(line, "id: %d", &ev.id); err != nil {
				return ev, false, fmt.Errorf("bad id frame %q: %v", line, err)
			}
			got = true
		case strings.HasPrefix(line, "event: "):
			ev.kind = strings.TrimPrefix(line, "event: ")
			got = true
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev.event); err != nil {
				return ev, false, fmt.Errorf("bad data frame %q: %v", line, err)
			}
			got = true
		}
	}
	return ev, false, nil
}

// streamBody marshals a stream append request.
func streamBody(model string, values []float64) string {
	b, _ := json.Marshal(serveclient.PredictRequest{Model: model, Values: values})
	return string(b)
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func doDelete(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// referenceDetector builds the in-process twin of a served stream:
// same model snapshot, same gate configuration as a server running cfg.
func referenceDetector(t *testing.T, clf *rpm.Classifier, cfg Config) *stream.Detector {
	t.Helper()
	pats := clf.Patterns()
	raw := make([][]float64, len(pats))
	for i, p := range pats {
		raw[i] = p.Values
	}
	m, err := stream.NewModel(raw, clf)
	if err != nil {
		t.Fatal(err)
	}
	return m.NewDetector(cfg.Stream)
}

// eventfulSeries finds a probe signal that commits at least minEvents
// events under the given gate: concatenations of test instances from
// different classes, searched deterministically. The expected events
// come from the in-process reference detector.
func eventfulSeries(t *testing.T, clf *rpm.Classifier, cfg Config, minEvents int) ([]float64, []stream.Event) {
	t.Helper()
	test := rpm.GenerateDataset("SynCBF", 1).Test
	for a := 0; a < len(test) && a < 8; a++ {
		for b := 0; b < len(test) && b < 8; b++ {
			if test[a].Label == test[b].Label {
				continue
			}
			var series []float64
			series = append(series, test[a].Values...)
			series = append(series, test[b].Values...)
			series = append(series, test[a].Values...)
			d := referenceDetector(t, clf, cfg)
			evs := d.Append(series)
			if len(evs) >= minEvents {
				return series, append([]stream.Event(nil), evs...)
			}
		}
	}
	t.Fatal("no probe concatenation commits enough events; gate config too strict for the fixture")
	return nil, nil
}

// TestStreamHappyPathEquivalence drives a stream over HTTP in chunks
// and asserts the served state and events are identical to the
// in-process reference detector fed the same samples — the serving
// layer adds transport, not semantics.
func TestStreamHappyPathEquivalence(t *testing.T) {
	cfg := Config{Stream: stream.Config{ConfirmWindows: 1}}
	s, ts, _ := newTestServer(t, func(c *Config) { c.Stream.ConfirmWindows = 1 })
	series, wantEvents := eventfulSeries(t, fixClf1, cfg, 2)
	ref := referenceDetector(t, fixClf1, cfg)

	var gotEvents []stream.Event
	var last streamAppendResponse
	for i := 0; i < len(series); {
		n := 37 // deliberately unaligned chunking
		if i+n > len(series) {
			n = len(series) - i
		}
		chunk := series[i : i+n]
		resp, body := postJSON(t, ts.URL+"/v1/streams/s1", streamBody("cbf", chunk))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append at %d: status %d: %s", i, resp.StatusCode, body)
		}
		last = streamAppendResponse{}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		if (i == 0) != last.Created {
			t.Fatalf("append at %d: created=%v", i, last.Created)
		}
		if last.Appended != n {
			t.Fatalf("append at %d: appended=%d, want %d", i, last.Appended, n)
		}
		refEvs := ref.Append(chunk)
		if len(refEvs) != len(last.NewEvents) {
			t.Fatalf("append at %d: %d events served, reference committed %d", i, len(last.NewEvents), len(refEvs))
		}
		gotEvents = append(gotEvents, last.NewEvents...)
		i += n
	}
	if last.Seen != int64(len(series)) || last.Model != "cbf" || last.Version != 1 {
		t.Fatalf("final state %+v", last.streamState)
	}
	refLabel, started := ref.Label()
	if !started || last.Label == nil || *last.Label != refLabel {
		t.Fatalf("served label %v != reference committed label %d", last.Label, refLabel)
	}
	if fmt.Sprint(gotEvents) != fmt.Sprint(wantEvents) {
		t.Fatalf("served events diverged from reference:\n%+v\nvs\n%+v", gotEvents, wantEvents)
	}
	// The detector's work folds into /debug/obs append by append.
	snap := s.Obs().Snapshot()
	work := ref.Work()
	for name, want := range map[string]int64{
		CtrStreamWindows:      work.Windows,
		CtrStreamWindowsExact: work.WindowsExact,
		CtrStreamClassify:     work.Classify,
	} {
		if got := snap.Counter(name); got != want || want <= 0 {
			t.Fatalf("%s = %d, reference detector %d", name, got, want)
		}
	}

	// GET state agrees with the last append; the list includes the stream.
	resp, body := getJSON(t, ts.URL+"/v1/streams/s1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: %d %s", resp.StatusCode, body)
	}
	var st streamState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Seen != last.Seen || st.Events != last.Events || st.Label == nil || *st.Label != *last.Label {
		t.Fatalf("GET state %+v != append state %+v", st, last.streamState)
	}
	resp, body = getJSON(t, ts.URL+"/v1/streams")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"s1"`) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}

	// DELETE ends the stream; state reads 404 afterwards.
	resp, body = doDelete(t, ts.URL+"/v1/streams/s1")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"deleted":true`) {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts.URL+"/v1/streams/s1")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after delete: %d %s", resp.StatusCode, body)
	}
}

// TestStreamErrorTaxonomy walks the per-stream error surface: every
// failure is a typed envelope with the documented status and code.
func TestStreamErrorTaxonomy(t *testing.T) {
	// MaxStreams 2 leaves one slot of headroom: capacity is checked
	// before model resolution (shed before work), so the unknown-model
	// case needs a free slot to reach the 404.
	s, ts, _ := newTestServer(t, func(c *Config) {
		c.MaxStreams = 2
		c.MaxStreamChunk = 4
	})
	// Seed the one allowed stream.
	resp, body := postJSON(t, ts.URL+"/v1/streams/only", streamBody("cbf", []float64{1, 2, 3}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed append: %d %s", resp.StatusCode, body)
	}
	cases := []struct {
		name   string
		do     func(t *testing.T) (*http.Response, []byte)
		status int
		code   string
	}{
		{"unknown stream GET", func(t *testing.T) (*http.Response, []byte) {
			return getJSON(t, ts.URL+"/v1/streams/ghost")
		}, http.StatusNotFound, "not_found"},
		{"unknown stream DELETE", func(t *testing.T) (*http.Response, []byte) {
			return doDelete(t, ts.URL+"/v1/streams/ghost")
		}, http.StatusNotFound, "not_found"},
		{"unknown stream events", func(t *testing.T) (*http.Response, []byte) {
			return getJSON(t, ts.URL+"/v1/streams/ghost/events")
		}, http.StatusNotFound, "not_found"},
		{"unknown model on create", func(t *testing.T) (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/streams/only2", streamBody("ghost", []float64{1}))
		}, http.StatusNotFound, "not_found"},
		{"chunk too large", func(t *testing.T) (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/streams/only", streamBody("", []float64{1, 2, 3, 4, 5}))
		}, http.StatusRequestEntityTooLarge, "too_large"},
		{"empty chunk", func(t *testing.T) (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/streams/only", streamBody("", nil))
		}, http.StatusBadRequest, "bad_input"},
		{"malformed JSON", func(t *testing.T) (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/streams/only", `{"values":[1,`)
		}, http.StatusBadRequest, "bad_input"},
		{"non-finite value", func(t *testing.T) (*http.Response, []byte) {
			// 1e999 overflows float64 at decode time; the decoder rejects it
			// before validateChunk ever runs — still a typed 400.
			return postJSON(t, ts.URL+"/v1/streams/only", `{"values":[1e999]}`)
		}, http.StatusBadRequest, "bad_input"},
		{"bound-model mismatch", func(t *testing.T) (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/streams/only", streamBody("other", []float64{1}))
		}, http.StatusBadRequest, "bad_input"},
		{"capacity shed", func(t *testing.T) (*http.Response, []byte) {
			if resp, body := postJSON(t, ts.URL+"/v1/streams/filler", streamBody("cbf", []float64{1})); resp.StatusCode != http.StatusOK {
				t.Fatalf("filler stream: %d %s", resp.StatusCode, body)
			}
			resp, body := postJSON(t, ts.URL+"/v1/streams/extra", streamBody("cbf", []float64{1}))
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			return resp, body
		}, http.StatusTooManyRequests, "overloaded"},
		{"bad since", func(t *testing.T) (*http.Response, []byte) {
			return getJSON(t, ts.URL+"/v1/streams/only/events?since=nope")
		}, http.StatusBadRequest, "bad_input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := tc.do(t)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var env serveclient.ErrorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("body is not the error envelope: %s", body)
			}
			if env.Error.Code != tc.code || env.Error.Status != tc.status {
				t.Fatalf("envelope %+v, want code %q status %d", env.Error, tc.code, tc.status)
			}
		})
	}

	// Draining: stream appends answer 503 like every other endpoint.
	s.BeginDrain()
	resp, body = postJSON(t, ts.URL+"/v1/streams/only", streamBody("", []float64{1}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append while draining: %d %s", resp.StatusCode, body)
	}
}

// TestValidateChunkNonFinite exercises the non-finite branch of
// validateChunk directly: JSON cannot carry NaN/Inf (the decoder
// rejects them first), so the guard is defense-in-depth for any future
// binary ingest path — it must stay a typed bad_input.
func TestValidateChunkNonFinite(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	for _, v := range []float64{nan(), inf()} {
		err := s.validateChunk([]float64{1, v, 3})
		if err == nil {
			t.Fatalf("non-finite chunk value %v accepted", v)
		}
		status, code := errorStatus(err)
		if status != http.StatusBadRequest || code != "bad_input" {
			t.Fatalf("non-finite chunk: status %d code %q", status, code)
		}
	}
	if err := s.validateChunk([]float64{1, 2, 3}); err != nil {
		t.Fatalf("finite chunk rejected: %v", err)
	}
}

func nan() float64 { f := 0.0; return f / f }
func inf() float64 { f := 1.0; return f / 0.0 }

// TestStreamRejectsUnstreamableModel pins stream creation against a
// model that cannot stream: the rotation-invariant transform needs the
// whole series, so creation answers 400 bad_input with the reason —
// while /v1/predict on the same model keeps working.
func TestStreamRejectsUnstreamableModel(t *testing.T) {
	fixtures(t)
	opts := rpm.DefaultOptions()
	opts.Mode = rpm.ParamFixed
	opts.Params = rpm.SAXParams{Window: 40, PAA: 6, Alphabet: 4}
	opts.Workers = 1
	opts.RotationInvariant = true
	clf, err := rpm.Train(rpm.GenerateDataset("SynCBF", 1).Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, ts, dir := newTestServer(t, nil)
	writeModel(t, dir, "rot", buf.Bytes())
	if _, body := postJSON(t, ts.URL+"/admin/reload", ""); !strings.Contains(string(body), "rot") {
		t.Fatalf("reload did not pick up the rotation model: %s", body)
	}
	resp, body := postJSON(t, ts.URL+"/v1/streams/r1", streamBody("rot", []float64{1, 2, 3}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rotation-invariant stream create: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "rotation") {
		t.Fatalf("error does not explain the rejection: %s", body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", predictBody("rot", fixProbe[0].Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict on rotation model: %d %s", resp.StatusCode, body)
	}
}

// TestStreamSSEFeedAndResume subscribes to a stream's SSE feed,
// verifies the live events match the reference detector, then
// reconnects with Last-Event-ID and verifies the resume replays
// exactly the missed tail — no duplicates, no losses.
func TestStreamSSEFeedAndResume(t *testing.T) {
	cfg := Config{Stream: stream.Config{ConfirmWindows: 1}}
	_, ts, _ := newTestServer(t, func(c *Config) { c.Stream.ConfirmWindows = 1 })
	series, wantEvents := eventfulSeries(t, fixClf1, cfg, 3)

	// Create the stream with the first half, then subscribe, then feed
	// the rest: the feed must first replay retained history, then deliver
	// live events as they commit.
	half := len(series) / 2
	resp, body := postJSON(t, ts.URL+"/v1/streams/sse", streamBody("cbf", series[:half]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first half: %d %s", resp.StatusCode, body)
	}
	feed, err := http.Get(ts.URL + "/v1/streams/sse/events")
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Body.Close()
	if feed.StatusCode != http.StatusOK || !strings.HasPrefix(feed.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("SSE connect: %d %q", feed.StatusCode, feed.Header.Get("Content-Type"))
	}
	type recv struct {
		ev  sseEvent
		ok  bool
		err error
	}
	events := make(chan recv, 64)
	go func() {
		sc := bufio.NewScanner(feed.Body)
		for {
			ev, ok, err := readSSE(sc)
			events <- recv{ev, ok, err}
			if !ok {
				return
			}
		}
	}()
	for i := half; i < len(series); {
		n := 23
		if i+n > len(series) {
			n = len(series) - i
		}
		if resp, body := postJSON(t, ts.URL+"/v1/streams/sse", streamBody("", series[i:i+n])); resp.StatusCode != http.StatusOK {
			t.Fatalf("append at %d: %d %s", i, resp.StatusCode, body)
		}
		i += n
	}
	var got []stream.Event
	for len(got) < len(wantEvents) {
		select {
		case r := <-events:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if !r.ok {
				t.Fatalf("feed ended after %d/%d events", len(got), len(wantEvents))
			}
			got = append(got, r.ev.event)
			if r.ev.id != r.ev.event.Seq || r.ev.kind != r.ev.event.Kind {
				t.Fatalf("SSE framing disagrees with payload: %+v", r.ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d/%d events", len(got), len(wantEvents))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(wantEvents) {
		t.Fatalf("SSE events diverged from reference:\n%+v\nvs\n%+v", got, wantEvents)
	}

	// Resume from the middle: a reconnect with Last-Event-ID replays
	// exactly the events after the cursor — the no-dup/no-loss contract.
	cut := len(wantEvents) / 2
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/streams/sse/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(wantEvents[cut].Seq))
	feed2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer feed2.Body.Close()
	sc := bufio.NewScanner(feed2.Body)
	for _, want := range wantEvents[cut+1:] {
		ev, ok, err := readSSE(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("resume feed ended early")
		}
		if ev.event != want {
			t.Fatalf("resume replayed %+v, want %+v", ev.event, want)
		}
	}

	// DELETE ends the live feed.
	if resp, body := doDelete(t, ts.URL+"/v1/streams/sse"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	waitFor(t, func() bool {
		select {
		case r := <-events:
			return !r.ok
		default:
			return false
		}
	})
}

// TestStreamDrainWithOpenSSE pins the shutdown ordering: BeginDrain
// must end open SSE feeds (they would otherwise hold
// http.Server.Shutdown hostage), post-drain appends answer 503, and
// Close completes within its budget with the registry emptied.
func TestStreamDrainWithOpenSSE(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/streams/d1", streamBody("cbf", []float64{1, 2, 3}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	feed, err := http.Get(ts.URL + "/v1/streams/d1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Body.Close()
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(feed.Body) // blocks until the feed ends
		done <- err
	}()
	s.BeginDrain()
	select {
	case <-done: // clean EOF (or transport close): the handler exited
	case <-time.After(5 * time.Second):
		t.Fatal("SSE feed still open 5s after BeginDrain")
	}
	resp, body = postJSON(t, ts.URL+"/v1/streams/d1", streamBody("", []float64{4}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("append while draining: %d %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close with (formerly) open SSE: %v", err)
	}
	if s.Streams().Len() != 0 {
		t.Fatalf("streams survived Close: %d", s.Streams().Len())
	}
}

// TestStreamObsAccounting pins the streaming observability: request,
// sample, and lifecycle counters plus the live-stream gauges reflect
// what actually happened.
func TestStreamObsAccounting(t *testing.T) {
	s, ts, _ := newTestServer(t, func(c *Config) { c.Stream.ConfirmWindows = 1 })
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+fmt.Sprintf("/v1/streams/o%d", i), streamBody("cbf", []float64{1, 2, 3, 4}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create %d: %d %s", i, resp.StatusCode, body)
		}
	}
	snap := s.Obs().Snapshot()
	if got := snap.Counter(CtrRequestsStream); got != 3 {
		t.Fatalf("%s = %d, want 3", CtrRequestsStream, got)
	}
	if got := snap.Counter(CtrStreamSamples); got != 12 {
		t.Fatalf("%s = %d, want 12", CtrStreamSamples, got)
	}
	if got := snap.Counter(CtrStreamsCreated); got != 3 {
		t.Fatalf("%s = %d, want 3", CtrStreamsCreated, got)
	}
	if got := snap.Gauge(GaugeStreams); got != 3 {
		t.Fatalf("%s = %d, want 3", GaugeStreams, got)
	}
	if got := snap.Gauge(GaugeStreamBytes); got != s.Streams().Bytes() || got <= 0 {
		t.Fatalf("%s = %d, registry says %d", GaugeStreamBytes, got, s.Streams().Bytes())
	}
	if sum := snap.Summary(SumLatencyStream); sum == nil || sum.Count != 3 {
		t.Fatalf("%s missing or wrong count: %+v", SumLatencyStream, sum)
	}
	if resp, body := doDelete(t, ts.URL+"/v1/streams/o0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, body)
	}
	snap = s.Obs().Snapshot()
	if got := snap.Counter(CtrStreamsClosed); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrStreamsClosed, got)
	}
	if got := snap.Gauge(GaugeStreams); got != 2 {
		t.Fatalf("%s = %d, want 2", GaugeStreams, got)
	}
}
