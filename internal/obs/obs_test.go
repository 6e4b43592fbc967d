package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety drives every handle type through its full method set on
// nil receivers: nothing may panic, and all reads return zero values.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Pool("p") != nil || r.StartSpan("s") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var s *Span
	if s.Start("x") != nil || s.Child("y") != nil {
		t.Fatal("nil span must produce nil children")
	}
	s.End()
	s.Add(time.Second)
	var p *Pool
	p.WorkerTask(0, time.Millisecond)
	p.RunDone(4, time.Millisecond)
	var snap *Snapshot
	if snap.FindSpan("x") != nil || snap.Counter("c") != 0 {
		t.Fatal("nil snapshot reads")
	}
	if b, err := snap.JSON(); err != nil || string(b) != "null" {
		t.Fatalf("nil snapshot JSON = %q, %v", b, err)
	}
	if got := snap.Text(); !strings.Contains(got, "no instrumentation") {
		t.Fatalf("nil snapshot text = %q", got)
	}
}

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	if c2 := r.Counter("hits"); c2 != c {
		t.Fatal("same name must return the same counter")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("level")
	g.Set(10)
	g.Set(12)
	if g.Value() != 12 {
		t.Fatalf("gauge = %d, want 12", g.Value())
	}
	snap := r.Snapshot()
	if snap.Counter("hits") != 5 {
		t.Fatalf("snapshot counter = %d", snap.Counter("hits"))
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "level" || snap.Gauges[0].Value != 12 {
		t.Fatalf("snapshot gauges = %+v", snap.Gauges)
	}
}

func TestSpanTreeAndAggregate(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("train")
	step := root.Start("step")
	time.Sleep(time.Millisecond)
	step.End()
	agg := root.Child("agg")
	agg.Add(3 * time.Millisecond)
	agg.Add(2 * time.Millisecond)
	root.End()

	snap := r.Snapshot()
	got := snap.FindSpan("agg")
	if got == nil {
		t.Fatal("agg span missing")
	}
	if got.WallNS != int64(5*time.Millisecond) {
		t.Fatalf("agg wall = %v, want 5ms", time.Duration(got.WallNS))
	}
	if got.Count != 2 {
		t.Fatalf("agg count = %d, want 2", got.Count)
	}
	tr := snap.FindSpan("train")
	if tr == nil || tr.WallNS < int64(time.Millisecond) {
		t.Fatalf("train span = %+v", tr)
	}
	if len(tr.Children) != 2 {
		t.Fatalf("train children = %d, want 2", len(tr.Children))
	}
	if snap.FindSpan("nope") != nil {
		t.Fatal("FindSpan on missing name must be nil")
	}
}

// TestRunningSpanReportsElapsed: a snapshot taken mid-span shows
// elapsed-so-far wall time so live views are useful.
func TestRunningSpanReportsElapsed(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("running")
	time.Sleep(2 * time.Millisecond)
	s := r.Snapshot().FindSpan("running")
	if s == nil || s.WallNS <= 0 {
		t.Fatalf("running span = %+v, want positive elapsed wall", s)
	}
}

func TestPoolAccounting(t *testing.T) {
	r := NewRegistry()
	p := r.Pool("work")
	p.WorkerTask(0, 2*time.Millisecond)
	p.WorkerTask(1, 3*time.Millisecond)
	p.WorkerTask(MaxPoolWorkers+5, time.Millisecond) // clamps into last slot
	p.RunDone(2, 10*time.Millisecond)

	s := r.Snapshot()
	if len(s.Pools) != 1 {
		t.Fatalf("pools = %d", len(s.Pools))
	}
	ps := s.Pools[0]
	if ps.Tasks != 3 || ps.Runs != 1 || ps.MaxWorkers != 2 {
		t.Fatalf("pool snapshot = %+v", ps)
	}
	if ps.BusyNS != int64(6*time.Millisecond) {
		t.Fatalf("busy = %d", ps.BusyNS)
	}
	// capacity 2×10ms − busy 6ms = 14ms idle
	if ps.IdleNS != int64(14*time.Millisecond) {
		t.Fatalf("idle = %d, want 14ms", ps.IdleNS)
	}
	if len(ps.TasksPerWorker) != MaxPoolWorkers {
		t.Fatalf("perWorker len = %d (clamped slot must be last)", len(ps.TasksPerWorker))
	}
	if ps.TasksPerWorker[0] != 1 || ps.TasksPerWorker[1] != 1 || ps.TasksPerWorker[MaxPoolWorkers-1] != 1 {
		t.Fatalf("perWorker = %v", ps.TasksPerWorker)
	}
}

// TestConcurrentRecording hammers one registry from many goroutines;
// meaningful under -race, and the final counts must be exact.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("root")
	agg := root.Child("agg")
	const goroutines, iters = 8, 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("n").Inc()
				r.Gauge("last").Set(int64(g*iters + i))
				agg.Add(time.Microsecond)
				r.Pool("p").WorkerTask(g, time.Microsecond)
				if i%50 == 0 {
					_ = r.Snapshot() // reads race-free against writes
				}
			}
		}()
	}
	wg.Wait()
	root.End()
	s := r.Snapshot()
	if got := s.Counter("n"); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := s.FindSpan("agg").Count; got != goroutines*iters {
		t.Fatalf("agg count = %d", got)
	}
	if got := s.Pools[0].Tasks; got != goroutines*iters {
		t.Fatalf("pool tasks = %d", got)
	}
	if got := s.Gauges[0].Value; got < 0 || got >= goroutines*iters {
		t.Fatalf("gauge = %d, not a stored value", got)
	}
}

func TestSnapshotRendering(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("train")
	sp.Start("fit").End()
	sp.End()
	r.Counter("b.ctr").Inc()
	r.Counter("a.ctr").Add(2)
	r.Gauge("workers").Set(4)
	r.Pool("p").RunDone(1, time.Millisecond)
	s := r.Snapshot()

	// counters sorted by name for stable JSON
	if s.Counters[0].Name != "a.ctr" || s.Counters[1].Name != "b.ctr" {
		t.Fatalf("counters not name-sorted: %+v", s.Counters)
	}
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counter("a.ctr") != 2 {
		t.Fatal("round-tripped counter lost")
	}
	txt := s.Text()
	for _, want := range []string{"spans:", "train", "fit", "counters:", "a.ctr", "gauges:", "workers", "pools:"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, txt)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)

	h := Handler(r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("handler JSON invalid: %v", err)
	}
	if snap.Counter("hits") != 3 {
		t.Fatal("handler snapshot lost counter")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs?format=text", nil))
	if !strings.Contains(rec.Body.String(), "hits") {
		t.Fatalf("text format missing counter: %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if strings.TrimSpace(rec.Body.String()) != "null" {
		t.Fatalf("nil registry handler = %q, want null", rec.Body.String())
	}
}
