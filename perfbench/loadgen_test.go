package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStallFromSchedule drives one connection at 200/s
// against a server that stalls the fourth request for 100 ms. The
// requests queued behind the stall are sent late; their latency must
// count from when they were due, and the lateness must show as lag.
func TestOpenLoopCountsStallFromSchedule(t *testing.T) {
	const stall = 100 * time.Millisecond
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 4 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"label":1}`))
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	reqs := []predictReq{{model: "m", body: []byte(`{}`), want: 1}}

	const n = 20
	lr := openLoop(context.Background(), 200, n, 1, predictSender(c, srv.URL, reqs))
	if lr.ok != n || lr.failed != 0 {
		t.Fatalf("ok=%d failed=%d, want %d ok", lr.ok, lr.failed, n)
	}
	byIndex := map[int]int{}
	for k, i := range lr.index {
		byIndex[i] = k
		if lr.lat[k] < lr.rtt[k] {
			t.Errorf("request %d: latency %v from schedule is below its round trip %v", i, lr.lat[k], lr.rtt[k])
		}
	}
	// Request 4 was due 5 ms after the stalled request 3 but could only go
	// once 3 returned: lag ≈ stall − 5 ms, latency from schedule ≥ that.
	k := byIndex[4]
	if lr.lag[k] < stall-20*time.Millisecond {
		t.Errorf("request 4 lag = %v, want about %v", lr.lag[k], stall-5*time.Millisecond)
	}
	if lr.lat[k] < lr.lag[k] {
		t.Errorf("request 4 latency %v hides its lag %v", lr.lat[k], lr.lag[k])
	}
	if p99 := percentile(durs(lr.lag), 0.99); p99 < ms(stall/2) {
		t.Errorf("lag p99 = %.2fms, the stall is invisible", p99)
	}
	// Requests well before the stall were sent on time.
	if lag := lr.lag[byIndex[1]]; lag > 20*time.Millisecond {
		t.Errorf("request 1 lag = %v before any stall", lag)
	}
}

// TestClosedLoopCapsConnections checks that the closed loop never has
// more requests in flight than connections.
func TestClosedLoopCapsConnections(t *testing.T) {
	var inflight, peak atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		w.Write([]byte(`{"label":1}`))
	}))
	defer srv.Close()
	c := newClient(2)
	defer c.CloseIdleConnections()
	reqs := []predictReq{{model: "m", body: []byte(`{}`), want: 1}}
	lr := closedLoop(context.Background(), time.Now().Add(100*time.Millisecond), 2, predictSender(c, srv.URL, reqs))
	if lr.ok == 0 || lr.failed != 0 {
		t.Fatalf("ok=%d failed=%d", lr.ok, lr.failed)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("%d requests in flight on 2 connections", p)
	}
}

// TestWrongLabelFailsTheRun serves a label that disagrees with the
// in-process reference: every such response is a failed op, and the
// run's result is not correct.
func TestWrongLabelFailsTheRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/predict":
			w.Write([]byte(`{"model":"m","version":1,"label":7}`))
		case "/v1/predict:batch":
			w.Write([]byte(`{"model":"m","version":1,"labels":[1,7]}`))
		default:
			http.Error(w, `{"error":{"code":"not_found"}}`, http.StatusNotFound)
		}
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()

	res := newResult()
	reqs := []predictReq{{model: "m", body: []byte(`{}`), want: 1}}
	lr := openLoop(context.Background(), 1000, 5, 1, predictSender(c, srv.URL, reqs))
	res.account("open loop", lr)
	if lr.failed != 5 || lr.ok != 0 {
		t.Fatalf("ok=%d failed=%d, want every request failed", lr.ok, lr.failed)
	}
	if !strings.Contains(lr.errs[0].Error(), "served label 7, in-process Predict 1") {
		t.Errorf("failure does not name the mismatch: %v", lr.errs[0])
	}
	batches := []batchReq{{model: "m", body: []byte(`{}`), want: []int{1, 1}}}
	lr = closedLoop(context.Background(), time.Now().Add(20*time.Millisecond), 1, batchSender(c, srv.URL, batches))
	res.account("batch", lr)
	if lr.failed == 0 || lr.ok != 0 {
		t.Errorf("batch with one wrong label: ok=%d failed=%d", lr.ok, lr.failed)
	}
	// A non-200 is a failure too.
	if _, err := post(context.Background(), c, srv.URL+"/nowhere", nil); err == nil {
		t.Error("404 accepted as success")
	}

	res.put("setup_s", 1)
	var out strings.Builder
	if emit(&out, res) {
		t.Error("run with mismatched labels reported correct")
	}
	last := out.String()[strings.LastIndex(strings.TrimSpace(out.String()), "\n")+1:]
	if !strings.HasPrefix(last, `{"correct":false,`) {
		t.Errorf("last line = %q, want a JSON result with correct=false", last)
	}
}
