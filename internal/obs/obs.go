// Package obs is the repo's stdlib-only instrumentation substrate: a
// Registry of hierarchical spans, atomic counters and gauges, and
// worker-pool usage accounting, threaded through the RPM training
// pipeline so the cost of the paper's three steps (§3.2.1–§3.2.3:
// SAX → grammar induction/clustering → refinement/CFS), the parameter
// search, and the worker pools becomes visible.
//
// Everything in this package is nil-safe: a nil *Registry produces nil
// spans, counters, gauges and pools, and every method on those nil
// handles is a no-op that allocates nothing. Instrumentation therefore
// costs nothing unless a caller explicitly attaches a live Registry —
// the property the byte-identity and overhead tests in internal/core
// verify.
//
// Concurrency: all mutating operations (Counter.Add, Gauge.Set,
// Span.Add, Pool.WorkerTask) are atomic or mutex-guarded and
// safe from any goroutine. Reads (Snapshot) may run concurrently with
// writes and observe a consistent tree with possibly-stale values.
//
// Determinism contract: recording into a Registry never changes the
// observed computation — it only reads clocks and bumps atomics —
// so training with a live Registry is byte-identical to training
// without one (enforced by TestObsByteIdentity in internal/core).
package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MaxPoolWorkers bounds the per-worker task slots a Pool tracks; worker
// ids at or above the bound are folded into the last slot. Worker pools
// in this repo are bounded by GOMAXPROCS, so the fold only triggers on
// very wide machines.
const MaxPoolWorkers = 64

// Registry collects the instrumentation of one training or benchmark
// run. The zero value is not usable; construct with NewRegistry. A nil
// *Registry is the canonical "instrumentation off" value: every method
// is a no-op returning nil handles.
type Registry struct {
	mu        sync.Mutex
	started   time.Time
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	pools     map[string]*Pool
	summaries map[string]*Summary
	roots     []*Span
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{
		started:   time.Now(),
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		pools:     map[string]*Pool{},
		summaries: map[string]*Summary{},
	}
}

// Counter returns the named monotonically-increasing counter, creating
// it on first use. Returns nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge (a last-write-wins value), creating it
// on first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Pool returns the named worker-pool accumulator, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Pool(name string) *Pool {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.pools[name]
	if !ok {
		p = &Pool{name: name}
		r.pools[name] = p
	}
	return p
}

// Summary returns the named duration summary (a histogram-ish latency
// accumulator), creating it on first use. Returns nil on a nil registry.
func (r *Registry) Summary(name string) *Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.summaries[name]
	if !ok {
		s = &Summary{name: name}
		s.min.Store(int64(^uint64(0) >> 1)) // MaxInt64 sentinel: no observations yet
		r.summaries[name] = s
	}
	return s
}

// StartSpan opens a new root-level span. Returns nil on a nil registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{reg: r, name: name, start: time.Now()}
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
	return s
}

// Counter is a monotonically-increasing atomic counter. A nil *Counter
// is a valid no-op handle.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-write-wins value. A nil *Gauge is a valid
// no-op handle.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// summaryBuckets is the number of power-of-two latency buckets a Summary
// tracks: bucket i counts observations in [2^i, 2^(i+1)) nanoseconds,
// with bucket 0 also absorbing sub-nanosecond values and the last bucket
// absorbing everything ≥ 2^(summaryBuckets-1) ns (~9.2 s and beyond —
// far past any request this repo serves).
const summaryBuckets = 34

// Summary is a duration accumulator with approximate quantiles: count,
// sum, min, max plus a fixed set of power-of-two histogram buckets, all
// atomics. It is the latency measure of the serving layer, where a plain
// Span's accumulated wall time hides tail behavior. A nil *Summary is a
// valid no-op handle; all methods are goroutine-safe.
type Summary struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64 // ns
	min     atomic.Int64 // ns; MaxInt64 until the first observation
	max     atomic.Int64 // ns
	buckets [summaryBuckets]atomic.Int64
}

// Observe folds one duration into the summary. Negative durations clamp
// to zero. No-op on nil.
func (s *Summary) Observe(d time.Duration) {
	if s == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	s.count.Add(1)
	s.sum.Add(ns)
	for {
		cur := s.min.Load()
		if ns >= cur || s.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if ns <= cur || s.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	s.buckets[summaryBucket(ns)].Add(1)
}

// summaryBucket maps a nanosecond value to its power-of-two bucket.
func summaryBucket(ns int64) int {
	b := 0
	for ns > 1 && b < summaryBuckets-1 {
		ns >>= 1
		b++
	}
	return b
}

// Span is one node in the hierarchical timing tree. Two usage styles:
//
//   - Start/End: s := parent.Start("step3"); defer s.End() — records one
//     wall-clock interval (repeated Start with the same name creates
//     sibling spans).
//   - Aggregate: s := parent.Child("step1_sax"); then s.Add(d) from any
//     goroutine — folds externally measured durations into one span.
//     Used by the per-class candidate fan-out, where the per-stage work
//     of concurrent classes accumulates into a single stage span (the
//     reported wall is then the summed busy time across classes, which
//     may exceed the parent's wall under parallelism).
//
// A nil *Span is a valid no-op handle; all methods are goroutine-safe.
type Span struct {
	reg    *Registry
	name   string
	parent *Span
	start  time.Time
	wall   atomic.Int64 // accumulated ns
	count  atomic.Int64 // completed Start..End intervals / Add calls

	mu       sync.Mutex
	children []*Span
}

// Start opens a child span. Returns nil on a nil span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.Child(name)
	c.start = time.Now()
	return c
}

// Child creates (always a new) child span without starting its clock,
// for use as an Add aggregation target. Returns nil on a nil span.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{reg: s.reg, name: name, parent: s}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes a span opened by Start/StartSpan, folding the elapsed wall
// time in. No-op on nil or on a span never started.
func (s *Span) End() {
	if s == nil || s.start.IsZero() {
		return
	}
	s.wall.Add(int64(time.Since(s.start)))
	s.count.Add(1)
}

// Add folds an externally measured duration into the span's wall time.
// Safe from any goroutine; used to aggregate per-class stage work.
// No-op on nil.
func (s *Span) Add(d time.Duration) {
	if s == nil {
		return
	}
	s.wall.Add(int64(d))
	s.count.Add(1)
}

// Pool accumulates worker-pool usage for one named pool across all of
// its runs: tasks and busy time per worker slot, plus run wall time and
// scheduled capacity (workers × wall), from which idle time derives.
// A nil *Pool is a valid no-op handle; all methods are atomic.
type Pool struct {
	name       string
	runs       atomic.Int64
	tasks      atomic.Int64
	busy       atomic.Int64 // summed task durations, ns
	capacity   atomic.Int64 // Σ runs workers×wall, ns
	wall       atomic.Int64 // Σ runs wall, ns
	maxWorkers atomic.Int64
	perWorker  [MaxPoolWorkers]atomic.Int64 // tasks per worker slot
}

// WorkerTask records one completed task of duration d executed by the
// given worker slot. No-op on nil.
func (p *Pool) WorkerTask(worker int, d time.Duration) {
	if p == nil {
		return
	}
	p.tasks.Add(1)
	p.busy.Add(int64(d))
	if worker < 0 {
		worker = 0
	}
	if worker >= MaxPoolWorkers {
		worker = MaxPoolWorkers - 1
	}
	p.perWorker[worker].Add(1)
}

// RunDone records one completed pool run that used the given number of
// workers for the given wall time. No-op on nil.
func (p *Pool) RunDone(workers int, wall time.Duration) {
	if p == nil {
		return
	}
	p.runs.Add(1)
	p.wall.Add(int64(wall))
	p.capacity.Add(int64(workers) * int64(wall))
	for {
		cur := p.maxWorkers.Load()
		if int64(workers) <= cur || p.maxWorkers.CompareAndSwap(cur, int64(workers)) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Snapshots

// Snapshot is a consistent, render-ready copy of a Registry's state.
// Counters, gauges and pools are sorted by name so the JSON encoding is
// stable across runs with identical values; spans keep creation order.
type Snapshot struct {
	Spans     []SpanSnapshot    `json:"spans,omitempty"`
	Counters  []CounterSnapshot `json:"counters,omitempty"`
	Gauges    []GaugeSnapshot   `json:"gauges,omitempty"`
	Pools     []PoolSnapshot    `json:"pools,omitempty"`
	Summaries []SummarySnapshot `json:"summaries,omitempty"`
}

// SpanSnapshot is one timing-tree node. WallNS is the accumulated wall
// time; Count the number of intervals/Add calls folded in.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	WallNS   int64          `json:"wallNS"`
	Count    int64          `json:"count"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// CounterSnapshot is one counter's name and value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's name and value.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// SummarySnapshot is one latency summary's state. The quantiles are
// approximate: each is the upper bound of the power-of-two bucket the
// quantile falls in (so they over-report by at most 2x), which is enough
// to see tail behavior without per-observation storage.
type SummarySnapshot struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	SumNS  int64  `json:"sumNS"`
	MinNS  int64  `json:"minNS"`
	MaxNS  int64  `json:"maxNS"`
	P50NS  int64  `json:"p50NS"`
	P90NS  int64  `json:"p90NS"`
	P99NS  int64  `json:"p99NS"`
	MeanNS int64  `json:"meanNS"`
}

// PoolSnapshot is one worker pool's cumulative usage. IdleNS is derived:
// scheduled capacity (Σ workers×wall) minus busy time.
type PoolSnapshot struct {
	Name           string  `json:"name"`
	Runs           int64   `json:"runs"`
	Tasks          int64   `json:"tasks"`
	BusyNS         int64   `json:"busyNS"`
	WallNS         int64   `json:"wallNS"`
	IdleNS         int64   `json:"idleNS"`
	MaxWorkers     int     `json:"maxWorkers"`
	TasksPerWorker []int64 `json:"tasksPerWorker,omitempty"`
}

// Snapshot captures the registry's current state. Returns nil on a nil
// registry. Safe to call concurrently with recording.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	snap := &Snapshot{}
	r.mu.Lock()
	roots := append([]*Span(nil), r.roots...)
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	pools := make([]*Pool, 0, len(r.pools))
	for _, p := range r.pools {
		pools = append(pools, p)
	}
	summaries := make([]*Summary, 0, len(r.summaries))
	for _, s := range r.summaries {
		summaries = append(summaries, s)
	}
	r.mu.Unlock()

	for _, s := range roots {
		snap.Spans = append(snap.Spans, snapSpan(s))
	}
	for _, c := range counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: c.name, Value: c.Value()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	for _, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: g.name, Value: g.Value()})
	}
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	for _, p := range pools {
		snap.Pools = append(snap.Pools, snapPool(p))
	}
	sort.Slice(snap.Pools, func(i, j int) bool { return snap.Pools[i].Name < snap.Pools[j].Name })
	for _, s := range summaries {
		snap.Summaries = append(snap.Summaries, snapSummary(s))
	}
	sort.Slice(snap.Summaries, func(i, j int) bool { return snap.Summaries[i].Name < snap.Summaries[j].Name })
	return snap
}

// snapSummary copies a summary's atomics and derives the approximate
// quantiles from the bucket counts. Concurrent Observe calls may make
// count and the bucket total differ by in-flight observations; quantile
// ranks use the bucket total so they stay internally consistent.
func snapSummary(s *Summary) SummarySnapshot {
	out := SummarySnapshot{Name: s.name, Count: s.count.Load(), SumNS: s.sum.Load(), MaxNS: s.max.Load()}
	if min := s.min.Load(); out.Count > 0 && min != int64(^uint64(0)>>1) {
		out.MinNS = min
	}
	if out.Count > 0 {
		out.MeanNS = out.SumNS / out.Count
	}
	var counts [summaryBuckets]int64
	var total int64
	for i := range s.buckets {
		counts[i] = s.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return out
	}
	// A quantile is its bucket's upper bound clamped into [MinNS, MaxNS]:
	// no quantile reads above the largest or below the smallest value
	// actually observed.
	quantile := func(q float64) int64 {
		rank := int64(q * float64(total))
		if rank >= total {
			rank = total - 1
		}
		var seen int64
		for i, c := range counts {
			seen += c
			if seen > rank {
				return min(max(int64(1)<<uint(i+1), out.MinNS), out.MaxNS)
			}
		}
		return out.MaxNS
	}
	out.P50NS = quantile(0.50)
	out.P90NS = quantile(0.90)
	out.P99NS = quantile(0.99)
	return out
}

func snapSpan(s *Span) SpanSnapshot {
	out := SpanSnapshot{
		Name:   s.name,
		WallNS: s.wall.Load(),
		Count:  s.count.Load(),
	}
	// A still-running span reports elapsed-so-far so live /metrics views
	// are useful mid-run.
	if out.Count == 0 && !s.start.IsZero() {
		out.WallNS = int64(time.Since(s.start))
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, snapSpan(c))
	}
	return out
}

func snapPool(p *Pool) PoolSnapshot {
	out := PoolSnapshot{
		Name:       p.name,
		Runs:       p.runs.Load(),
		Tasks:      p.tasks.Load(),
		BusyNS:     p.busy.Load(),
		WallNS:     p.wall.Load(),
		MaxWorkers: int(p.maxWorkers.Load()),
	}
	if idle := p.capacity.Load() - out.BusyNS; idle > 0 {
		out.IdleNS = idle
	}
	for w := 0; w < MaxPoolWorkers; w++ {
		if v := p.perWorker[w].Load(); v != 0 {
			for len(out.TasksPerWorker) <= w {
				out.TasksPerWorker = append(out.TasksPerWorker, 0)
			}
			out.TasksPerWorker[w] = v
		}
	}
	return out
}

// FindSpan returns the first span (depth-first, creation order) whose
// name matches, or nil. Works on nil snapshots.
func (s *Snapshot) FindSpan(name string) *SpanSnapshot {
	if s == nil {
		return nil
	}
	for i := range s.Spans {
		if f := findSpanIn(&s.Spans[i], name); f != nil {
			return f
		}
	}
	return nil
}

func findSpanIn(s *SpanSnapshot, name string) *SpanSnapshot {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if f := findSpanIn(&s.Children[i], name); f != nil {
			return f
		}
	}
	return nil
}

// Summary returns the named summary snapshot, or nil when absent (or on
// a nil snapshot).
func (s *Snapshot) Summary(name string) *SummarySnapshot {
	if s == nil {
		return nil
	}
	for i := range s.Summaries {
		if s.Summaries[i].Name == name {
			return &s.Summaries[i]
		}
	}
	return nil
}

// Gauge returns the named gauge's value (0 when absent or nil).
func (s *Snapshot) Gauge(name string) int64 {
	if s == nil {
		return 0
	}
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Counter returns the named counter's value (0 when absent or nil).
func (s *Snapshot) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// JSON renders the snapshot as indented, stable JSON (fields in struct
// order, name-sorted counters/gauges/pools).
func (s *Snapshot) JSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.MarshalIndent(s, "", "  ")
}

// Text renders the snapshot for humans: the span tree with durations,
// then counters, gauges and pool usage.
func (s *Snapshot) Text() string {
	if s == nil {
		return "(no instrumentation)\n"
	}
	var b strings.Builder
	if len(s.Spans) > 0 {
		b.WriteString("spans:\n")
		for _, sp := range s.Spans {
			writeSpanText(&b, sp, 1)
		}
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-36s %d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-36s %d\n", g.Name, g.Value)
		}
	}
	if len(s.Pools) > 0 {
		b.WriteString("pools:\n")
		for _, p := range s.Pools {
			fmt.Fprintf(&b, "  %-28s runs=%d tasks=%d busy=%s idle=%s maxWorkers=%d perWorker=%v\n",
				p.Name, p.Runs, p.Tasks, time.Duration(p.BusyNS).Round(time.Microsecond),
				time.Duration(p.IdleNS).Round(time.Microsecond), p.MaxWorkers, p.TasksPerWorker)
		}
	}
	if len(s.Summaries) > 0 {
		b.WriteString("summaries:\n")
		for _, sm := range s.Summaries {
			fmt.Fprintf(&b, "  %-28s n=%d mean=%s p50=%s p90=%s p99=%s max=%s\n",
				sm.Name, sm.Count, time.Duration(sm.MeanNS).Round(time.Microsecond),
				time.Duration(sm.P50NS).Round(time.Microsecond), time.Duration(sm.P90NS).Round(time.Microsecond),
				time.Duration(sm.P99NS).Round(time.Microsecond), time.Duration(sm.MaxNS).Round(time.Microsecond))
		}
	}
	return b.String()
}

func writeSpanText(b *strings.Builder, s SpanSnapshot, depth int) {
	fmt.Fprintf(b, "%s%-*s wall=%s", strings.Repeat("  ", depth), 36-2*depth, s.Name,
		time.Duration(s.WallNS).Round(time.Microsecond))
	if s.Count > 1 {
		fmt.Fprintf(b, " n=%d", s.Count)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		writeSpanText(b, c, depth+1)
	}
}

// Handler serves the registry's live snapshot over HTTP: JSON by
// default (expvar-style), human text with ?format=text. Safe while the
// run is still recording. A nil registry serves "null".
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, snap.Text())
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		b, err := snap.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(b)
	})
}
