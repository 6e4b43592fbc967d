package serve

// The chaos end-to-end suite (run via `make chaos`): scripted fault
// scenarios against a live server, each executed TWICE with the same
// seed. The invariants asserted in every scenario:
//
//  1. No wrong prediction is ever returned: every 200 body carries a
//     label byte-identical to direct Classifier.Predict of the model
//     version the envelope claims served it.
//  2. Every request gets exactly one terminal answer — a 200, a typed
//     error envelope, or a clean connection abort. Never a hang, never
//     a truncated success body.
//  3. A failed reload never evicts a serving model: the old version
//     keeps answering until a clean replacement loads.
//  4. The server always drains cleanly, even mid-fault.
//  5. Determinism: both runs produce identical injected-fault event
//     logs AND identical outcome transcripts — the reproducibility
//     contract of internal/faults (DESIGN.md §13).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rpm"
	"rpm/internal/faults"
	serveclient "rpm/internal/serve/client"
	"rpm/internal/stream"
)

// newChaosServer builds a Server with the given armed injector over a
// fresh model dir holding model1 under "cbf".
func newChaosServer(t *testing.T, seed int64, spec string) (*Server, *httptest.Server, string, *faults.Injector) {
	t.Helper()
	inj, err := faults.New(seed, spec)
	if err != nil {
		t.Fatalf("faults.New(%q): %v", spec, err)
	}
	s, ts, dir := newTestServer(t, func(c *Config) { c.Faults = inj })
	return s, ts, dir, inj
}

// rawPredict posts one predict request without failing the test on a
// transport error — injected write aborts are an EXPECTED outcome.
func rawPredict(ts *httptest.Server, body string) (int, []byte, error) {
	resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// eventsJSON renders the injected-fault log for determinism comparison.
func eventsJSON(t *testing.T, inj *faults.Injector) string {
	t.Helper()
	b, err := json.Marshal(inj.Events())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkIdentity asserts invariant 1 for a 200 predict response: the
// served label is byte-identical to direct Predict of the classifier
// the envelope's version maps to.
func checkIdentity(t *testing.T, body []byte, versionClf map[int]*rpm.Classifier, values []float64) string {
	t.Helper()
	var out serveclient.PredictResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("200 body does not parse: %v (%s)", err, body)
	}
	clf, ok := versionClf[out.Version]
	if !ok {
		t.Fatalf("served version %d was never cleanly loaded", out.Version)
	}
	if want := clf.Predict(values); out.Label != want {
		t.Fatalf("WRONG PREDICTION: served label %d != direct Predict %d for version %d",
			out.Label, want, out.Version)
	}
	return fmt.Sprintf("ok v%d label=%d", out.Version, out.Label)
}

// errCode parses a non-2xx body's envelope code.
func errCode(t *testing.T, status int, body []byte) string {
	t.Helper()
	var env serveclient.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		t.Fatalf("status %d body is not a valid error envelope: %s", status, body)
	}
	if env.Error.Status != status {
		t.Fatalf("envelope status %d != HTTP status %d", env.Error.Status, status)
	}
	return env.Error.Code
}

// runTwice executes one scenario twice with the same seed and fails if
// the injected-fault logs or the outcome transcripts differ.
func runTwice(t *testing.T, scenario func(t *testing.T, seed int64) (string, []string)) {
	t.Helper()
	const seed = 42
	ev1, tr1 := scenario(t, seed)
	ev2, tr2 := scenario(t, seed)
	if ev1 != ev2 {
		t.Fatalf("injected-fault sequences diverged across same-seed runs:\nrun1: %s\nrun2: %s", ev1, ev2)
	}
	if fmt.Sprint(tr1) != fmt.Sprint(tr2) {
		t.Fatalf("outcome transcripts diverged across same-seed runs:\nrun1: %v\nrun2: %v", tr1, tr2)
	}
	if ev1 == "null" || ev1 == "[]" {
		t.Fatal("scenario injected no faults at all — the chaos run proved nothing")
	}
}

// TestChaosCorruptReloadStorm: repeated model swaps under a 60% chance
// of an injected load failure per reload. The serving catalog must
// never go backwards: a failed load keeps the previous version
// answering (invariant 3), every predict answers 200, and every answer
// is byte-identical to the classifier of the version it claims
// (invariant 1). skip=1 exempts the initial load so the storm starts
// from a known v1.
func TestChaosCorruptReloadStorm(t *testing.T) {
	runTwice(t, func(t *testing.T, seed int64) (string, []string) {
		s, ts, dir, inj := newChaosServer(t, seed, "store.load:skip=1:p=0.6")
		var transcript []string
		versionClf := map[int]*rpm.Classifier{1: fixClf1}
		written := fixClf1
		for i := 0; i < 10; i++ {
			if i%2 == 0 {
				writeModel(t, dir, "cbf", model2)
				written = fixClf2
			} else {
				writeModel(t, dir, "cbf", model1)
				written = fixClf1
			}
			rep, err := s.Reload()
			if err != nil {
				t.Fatalf("reload %d: %v", i, err)
			}
			m, err := s.store.Get("cbf")
			if err != nil {
				t.Fatalf("reload %d evicted the serving model: %v", i, err)
			}
			if _, ok := versionClf[m.Version]; !ok {
				// A clean content change: this version serves the bytes we
				// just wrote.
				versionClf[m.Version] = written
			}
			transcript = append(transcript, fmt.Sprintf(
				"reload %d: loaded=%d unchanged=%d keptOld=%d serving=v%d",
				i, len(rep.Loaded), len(rep.Unchanged), len(rep.KeptOld), m.Version))
			for p := 0; p < 2; p++ {
				status, body, err := rawPredict(ts, predictBody("cbf", fixProbe[p].Values))
				if err != nil {
					t.Fatalf("reload %d probe %d: transport error: %v", i, p, err)
				}
				if status != http.StatusOK {
					t.Fatalf("reload %d probe %d: status %d: %s", i, p, status, body)
				}
				transcript = append(transcript, checkIdentity(t, body, versionClf, fixProbe[p].Values))
			}
		}
		return eventsJSON(t, inj), transcript
	})
}

// TestChaosLatencyStorm: every flush has a 50% chance of an injected
// 15ms stall. Latency spikes must never change answers: all requests
// still complete 200 with byte-identical labels (invariants 1+2).
func TestChaosLatencyStorm(t *testing.T) {
	runTwice(t, func(t *testing.T, seed int64) (string, []string) {
		_, ts, _, inj := newChaosServer(t, seed, "batcher.flush:p=0.5:d=15ms")
		var transcript []string
		versionClf := map[int]*rpm.Classifier{1: fixClf1}
		for i := 0; i < 12; i++ {
			in := fixProbe[i%len(fixProbe)]
			status, body, err := rawPredict(ts, predictBody("cbf", in.Values))
			if err != nil {
				t.Fatalf("probe %d: transport error: %v", i, err)
			}
			if status != http.StatusOK {
				t.Fatalf("probe %d: status %d: %s", i, status, body)
			}
			transcript = append(transcript, checkIdentity(t, body, versionClf, in.Values))
		}
		return eventsJSON(t, inj), transcript
	})
}

// TestChaosStalledFlushDrain: a flush is deterministically stalled at
// the test gate while more requests queue behind it, then the server
// begins draining WITH flush-stall faults still armed. Every queued
// request must still get exactly one terminal answer, post-drain
// arrivals get 503 draining, and Close returns cleanly (invariants 2+4).
func TestChaosStalledFlushDrain(t *testing.T) {
	runTwice(t, func(t *testing.T, seed int64) (string, []string) {
		s, ts, _, inj := newChaosServer(t, seed, "batcher.flush:p=1:d=20ms")
		gate := make(chan struct{})
		s.batcher.flushGate = gate

		type result struct {
			status int
			body   []byte
			err    error
		}
		fire := func(i int) chan result {
			ch := make(chan result, 1)
			go func() {
				status, body, err := rawPredict(ts, predictBody("cbf", fixProbe[i].Values))
				ch <- result{status, body, err}
			}()
			return ch
		}
		// A is popped by the loop and stalls at the gate (before the
		// injected delay); B and C queue up behind the stalled flush.
		a := fire(0)
		<-gate
		b, c := fire(1), fire(2)
		waitFor(t, func() bool { return len(s.batcher.queue) == 2 })

		// Drain begins while the flush is stalled mid-fault.
		s.BeginDrain()
		dStatus, dBody, err := rawPredict(ts, predictBody("cbf", fixProbe[3].Values))
		if err != nil {
			t.Fatalf("post-drain request: transport error: %v", err)
		}
		if dStatus != http.StatusServiceUnavailable || errCode(t, dStatus, dBody) != "draining" {
			t.Fatalf("post-drain request: status %d %s, want 503 draining", dStatus, dBody)
		}

		// Release the gate and keep servicing it: the flush of {B,C}
		// passes through the same handshake. The service goroutine lives
		// until the batcher's loop exits (Close below).
		released := make(chan struct{})
		go func() {
			defer close(released)
			gate <- struct{}{} // release A
			for {
				select {
				case <-gate:
					gate <- struct{}{}
				case <-s.batcher.done:
					return
				}
			}
		}()

		// Every queued request terminates exactly once, correctly, before
		// the batcher is even asked to stop.
		var transcript []string
		versionClf := map[int]*rpm.Classifier{1: fixClf1}
		for i, ch := range []chan result{a, b, c} {
			select {
			case res := <-ch:
				if res.err != nil {
					t.Fatalf("queued request %d: transport error: %v", i, res.err)
				}
				if res.status != http.StatusOK {
					t.Fatalf("queued request %d: status %d: %s", i, res.status, res.body)
				}
				transcript = append(transcript, checkIdentity(t, res.body, versionClf, fixProbe[i].Values))
			case <-time.After(10 * time.Second):
				t.Fatalf("queued request %d never got a terminal answer", i)
			}
		}
		transcript = append(transcript, "post-drain: 503 draining")

		// Invariant 4: the server drains cleanly with faults still armed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Fatalf("server failed to drain cleanly under flush faults: %v", err)
		}
		<-released
		return eventsJSON(t, inj), transcript
	})
}

// TestChaosDeadlineStorm: half of all requests have their deadline
// exhausted before they are enqueued. Each must terminate exactly once:
// 504 deadline_exceeded for the hit ones, 200 byte-identical for the
// rest — and the number of 504s must equal the number of injected
// deadline faults (invariants 1+2).
func TestChaosDeadlineStorm(t *testing.T) {
	runTwice(t, func(t *testing.T, seed int64) (string, []string) {
		s, ts, _, inj := newChaosServer(t, seed, "server.deadline:p=0.5")
		var transcript []string
		versionClf := map[int]*rpm.Classifier{1: fixClf1}
		timeouts := 0
		for i := 0; i < 16; i++ {
			in := fixProbe[i%len(fixProbe)]
			status, body, err := rawPredict(ts, predictBody("cbf", in.Values))
			if err != nil {
				t.Fatalf("probe %d: transport error: %v", i, err)
			}
			switch status {
			case http.StatusOK:
				transcript = append(transcript, checkIdentity(t, body, versionClf, in.Values))
			case http.StatusGatewayTimeout:
				if code := errCode(t, status, body); code != "deadline_exceeded" {
					t.Fatalf("probe %d: 504 with code %q", i, code)
				}
				timeouts++
				transcript = append(transcript, "err 504 deadline_exceeded")
			default:
				t.Fatalf("probe %d: unexpected status %d: %s", i, status, body)
			}
		}
		if injected := len(inj.Events()); timeouts != injected {
			t.Fatalf("%d requests answered 504 but %d deadline faults injected", timeouts, injected)
		}
		if timeouts == 0 || timeouts == 16 {
			t.Fatalf("deadline storm degenerated: %d/16 hit", timeouts)
		}
		// The shed requests must eventually be counted by the queue-age
		// admission check — 504ed requests are never computed.
		waitFor(t, func() bool { return s.reg.Snapshot().Counter(CtrExpired) == int64(timeouts) })
		return eventsJSON(t, inj), transcript
	})
}

// TestChaosWriteAbortStorm: half of all success responses abort at
// write time. The client must see either a clean 200 with the correct
// label or a transport error — NEVER a truncated or wrong 200 body
// (invariants 1+2) — and the abort count must match the injected log.
func TestChaosWriteAbortStorm(t *testing.T) {
	runTwice(t, func(t *testing.T, seed int64) (string, []string) {
		s, ts, _, inj := newChaosServer(t, seed, "server.write:p=0.5")
		var transcript []string
		versionClf := map[int]*rpm.Classifier{1: fixClf1}
		aborted := 0
		for i := 0; i < 16; i++ {
			in := fixProbe[i%len(fixProbe)]
			status, body, err := rawPredict(ts, predictBody("cbf", in.Values))
			if err != nil {
				aborted++
				transcript = append(transcript, "aborted")
				continue
			}
			if status != http.StatusOK {
				t.Fatalf("probe %d: unexpected status %d: %s", i, status, body)
			}
			transcript = append(transcript, checkIdentity(t, body, versionClf, in.Values))
		}
		if injected := len(inj.Events()); aborted != injected {
			t.Fatalf("%d aborted exchanges but %d write faults injected", aborted, injected)
		}
		if aborted == 0 || aborted == 16 {
			t.Fatalf("write-abort storm degenerated: %d/16 hit", aborted)
		}
		// Aborts must not leak through the panic guard as 500s.
		if n := s.reg.Snapshot().Counter(CtrErrPrefix + "internal"); n != 0 {
			t.Fatalf("write aborts surfaced as %d internal errors", n)
		}
		return eventsJSON(t, inj), transcript
	})
}

// TestChaosStreamAppendStorm (scenario 6): a stream-append storm under
// three armed stream faults at once — injected 429 sheds on append,
// connection aborts mid-SSE-feed, and flush stalls. The invariants:
// a shed append consumes no samples and commits no events (the client
// retry converges on exactly the reference event sequence), an SSE
// client that reconnects with Last-Event-ID after every abort receives
// every event exactly once — no duplicates, no losses — and the server
// drains cleanly with a feed still open (invariants 2, 4, 5).
func TestChaosStreamAppendStorm(t *testing.T) {
	fixtures(t)
	cfg := Config{Stream: stream.Config{ConfirmWindows: 1}}
	series, wantEvents := eventfulSeries(t, fixClf1, cfg, 3)
	runTwice(t, func(t *testing.T, seed int64) (string, []string) {
		inj, err := faults.New(seed,
			"stream.append:p=0.3;stream.sse.write:p=0.35;stream.sse.flush:p=0.5:d=2ms")
		if err != nil {
			t.Fatal(err)
		}
		s, ts, _ := newTestServer(t, func(c *Config) {
			c.Faults = inj
			c.Stream.ConfirmWindows = 1
		})
		var transcript []string

		// Phase 1 — append storm. Each shed append answers 429 overloaded
		// and must be side-effect free: the retry that follows lands on
		// the exact sample count the previous success left, and the final
		// event list is byte-for-byte the reference detector's.
		var served []stream.Event
		var seen int64
		sheds := 0
		for i := 0; i < len(series); {
			n := 29
			if i+n > len(series) {
				n = len(series) - i
			}
			resp, body := postJSON(t, ts.URL+"/v1/streams/storm", streamBody("cbf", series[i:i+n]))
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				if code := errCode(t, resp.StatusCode, body); code != "overloaded" {
					t.Fatalf("shed append: code %q", code)
				}
				sheds++
				continue // retry the SAME chunk: the shed consumed nothing
			case http.StatusOK:
				var out streamAppendResponse
				if err := json.Unmarshal(body, &out); err != nil {
					t.Fatal(err)
				}
				if out.Seen != seen+int64(n) {
					t.Fatalf("append at %d: seen %d, want %d — a shed append consumed samples",
						i, out.Seen, seen+int64(n))
				}
				seen = out.Seen
				served = append(served, out.NewEvents...)
				i += n
			default:
				t.Fatalf("append at %d: status %d: %s", i, resp.StatusCode, body)
			}
		}
		if fmt.Sprint(served) != fmt.Sprint(wantEvents) {
			t.Fatalf("storm events diverged from reference:\n%+v\nvs\n%+v", served, wantEvents)
		}
		transcript = append(transcript, fmt.Sprintf("storm: %d events, %d sheds", len(served), sheds))

		// Phase 2 — SSE replay under aborts and stalls. A client that
		// reconnects with Last-Event-ID after every connection abort must
		// assemble the full event list exactly once.
		var got []stream.Event
		cursor := -1
		reconnects := 0
		for len(got) < len(wantEvents) {
			req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/streams/storm/events", nil)
			if err != nil {
				t.Fatal(err)
			}
			if cursor >= 0 {
				req.Header.Set("Last-Event-ID", fmt.Sprint(cursor))
			}
			feed, err := ts.Client().Do(req)
			if err != nil {
				reconnects++ // aborted before headers committed
				continue
			}
			if feed.StatusCode != http.StatusOK {
				t.Fatalf("SSE connect: %d", feed.StatusCode)
			}
			sc := bufio.NewScanner(feed.Body)
			for len(got) < len(wantEvents) {
				ev, ok, err := readSSE(sc)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					reconnects++ // injected mid-feed abort: resume at cursor
					break
				}
				if ev.event.Seq != cursor+1 && !(cursor == -1 && ev.event.Seq == 0) {
					t.Fatalf("SSE delivered seq %d after cursor %d — duplicate or gap", ev.event.Seq, cursor)
				}
				got = append(got, ev.event)
				cursor = ev.event.Seq
			}
			feed.Body.Close()
		}
		if fmt.Sprint(got) != fmt.Sprint(wantEvents) {
			t.Fatalf("SSE reassembly diverged from reference:\n%+v\nvs\n%+v", got, wantEvents)
		}
		transcript = append(transcript, fmt.Sprintf("sse: %d events after %d reconnects", len(got), reconnects))

		// Phase 3 — drain with an open feed. A fresh feed parked one event
		// before the end replays that event (proving it is live), then
		// BeginDrain must end it promptly; post-drain appends answer 503
		// and Close is clean (invariant 4).
		var tail *http.Response
		for tail == nil {
			req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/streams/storm/events", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Last-Event-ID", fmt.Sprint(wantEvents[len(wantEvents)-2].Seq))
			feed, err := ts.Client().Do(req)
			if err != nil {
				continue
			}
			sc := bufio.NewScanner(feed.Body)
			ev, ok, err := readSSE(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !ok { // aborted before the tail event arrived: reconnect
				feed.Body.Close()
				continue
			}
			if want := wantEvents[len(wantEvents)-1]; ev.event != want {
				t.Fatalf("tail feed replayed %+v, want %+v", ev.event, want)
			}
			tail = feed
		}
		defer tail.Body.Close()
		ended := make(chan struct{})
		go func() {
			defer close(ended)
			io.Copy(io.Discard, tail.Body) // blocks until the feed ends
		}()
		s.BeginDrain()
		select {
		case <-ended:
		case <-time.After(10 * time.Second):
			t.Fatal("SSE feed still open 10s after BeginDrain")
		}
		resp, body := postJSON(t, ts.URL+"/v1/streams/storm", streamBody("", []float64{1}))
		if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, resp.StatusCode, body) != "draining" {
			t.Fatalf("post-drain append: %d %s", resp.StatusCode, body)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Fatalf("server failed to drain cleanly under stream faults: %v", err)
		}
		transcript = append(transcript, "post-drain: 503 draining; closed clean")
		return eventsJSON(t, inj), transcript
	})
}
