package serve

import (
	"context"
	"sync"
	"time"

	"rpm"
	"rpm/internal/faults"
	"rpm/internal/obs"
)

// predRequest is one single-prediction request queued into the batcher.
type predRequest struct {
	model  string
	values []float64
	// ctx is the request's deadline-bearing context. The flush consults
	// it at admission time: a request whose context already expired is
	// shed with its context error (→ 504) instead of being computed for
	// a caller that stopped listening (the queue-age admission check).
	ctx context.Context
	// out is buffered (capacity 1) so a flush never blocks on a caller
	// that gave up waiting (deadline, disconnect).
	out chan predResponse
}

type predResponse struct {
	label int
	model *Model
	err   error
}

// batcher is the micro-batcher: single-prediction requests queue into a
// bounded channel, and one goroutine (loop) flushes each request it pops
// together with everything already waiting behind it. The batch is what
// the queue holds: a lone request flushes at once, and requests that
// arrive while a flush runs leave together in the next one. Batched
// requests share no transform work; what a batch buys is the worker
// fan-out inside PredictBatchContext for the single flush goroutine.
//
// Flushes resolve the model from the store at flush time, so a hot
// reload redirects the very next flush to the new model without
// dropping anything queued.
type batcher struct {
	store  *Store
	faults *faults.Injector

	queue chan *predRequest
	// batch is the loop's reusable flush buffer. Its capacity, the
	// popped request plus a full queue, bounds every batch.
	batch    []*predRequest
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}

	batches  *obs.Counter
	items    *obs.Counter
	expired  *obs.Counter
	injected *obs.Counter
	depth    *obs.Gauge
	pool     *obs.Pool

	// scratch pools the per-flush assembly state (the rpm.Dataset rows
	// handed to PredictBatch) so steady-state flushes reuse one backing
	// slice instead of allocating a fresh dataset per flush. scratchNew
	// counts pool misses — flushes minus misses is the achieved reuse.
	scratch    sync.Pool
	scratchNew *obs.Counter

	// flushGate, when non-nil, turns every flush into a two-phase
	// handshake: flush sends one token (announcing it has begun and is
	// stalled) then receives one token (the release). It exists solely
	// for tests that need a deterministically stalled batcher
	// (queue-full shedding, reload-during-flight); it is nil in
	// production and costs one nil check per flush.
	flushGate chan struct{}
}

// flushScratch is the reusable per-flush assembly state: the dataset
// passed to PredictBatch (and the filtered request list of the rare
// expired-shedding path) grows to the steady-state batch size once and
// is then recycled flush after flush.
type flushScratch struct {
	ds   rpm.Dataset
	reqs []*predRequest
}

func newBatcher(store *Store, queueSize int, reg *obs.Registry, inj *faults.Injector) *batcher {
	b := &batcher{
		store:      store,
		faults:     inj,
		queue:      make(chan *predRequest, queueSize),
		batch:      make([]*predRequest, 0, queueSize+1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		batches:    reg.Counter(CtrBatches),
		items:      reg.Counter(CtrBatchItems),
		expired:    reg.Counter(CtrExpired),
		injected:   reg.Counter(CtrFaultsInjected),
		depth:      reg.Gauge(GaugeQueueDepth),
		pool:       reg.Pool(PoolBatch),
		scratchNew: reg.Counter(CtrFlushScratchNew),
	}
	b.scratch.New = func() any {
		b.scratchNew.Inc()
		return &flushScratch{}
	}
	return b
}

// start launches the batch-assembly goroutine.
func (b *batcher) start() { go b.loop() }

// enqueue offers a request to the queue without blocking. A false return
// means the queue is full — the caller sheds the request with 429.
// faults.SiteEnqueueFull simulates a saturated queue.
func (b *batcher) enqueue(r *predRequest) bool {
	if b.faults.Fire(faults.SiteEnqueueFull) {
		b.injected.Inc()
		return false
	}
	select {
	case b.queue <- r:
		b.depth.Set(int64(len(b.queue)))
		return true
	default:
		return false
	}
}

// loop flushes batches until quit, then drains whatever remains in the
// queue so graceful shutdown never strands a queued request.
func (b *batcher) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.quit:
			for b.flushQueued(nil) {
			}
			return
		case r := <-b.queue:
			b.flushQueued(r)
		}
	}
}

// flushQueued flushes first (when non-nil) together with every request
// already waiting in the queue, and reports whether there was anything
// to flush. It is the loop's one collect step, so it is where the
// consumer side records serve.queue.depth.
func (b *batcher) flushQueued(first *predRequest) bool {
	batch := b.batch[:0]
	if first != nil {
		batch = append(batch, first)
	}
	// The loop is the queue's only receiver, so these receives never block.
	for range len(b.queue) {
		batch = append(batch, <-b.queue)
	}
	b.depth.Set(int64(len(b.queue)))
	if len(batch) == 0 {
		return false
	}
	b.flush(batch)
	clear(batch) // an idle batcher must not pin the last batch's series
	return true
}

// stop signals the loop to drain and waits for it (or ctx). Safe to
// call more than once (Server.Close is idempotent).
func (b *batcher) stop(ctx context.Context) error {
	b.quitOnce.Do(func() { close(b.quit) })
	select {
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flush classifies one assembled batch, which it owns and may reorder.
// Requests are grouped by model name (one PredictBatch call per distinct
// model, resolved from the store at flush time so reloads take effect
// immediately); each group's labels are distributed back to the waiting
// handlers. The typical single-model deployment always produces exactly
// one PredictBatch call.
//
//rpmlint:hotpath PR6 serving flush: steady-state flush is allocation-free
func (b *batcher) flush(batch []*predRequest) {
	if b.flushGate != nil {
		b.flushGate <- struct{}{} // announce: stalled at the gate
		<-b.flushGate             // wait for release
	}
	// Injected flush stall / latency spike (faults.SiteFlushDelay):
	// sleeps before any model work, so queued requests age exactly as
	// they would behind a genuinely slow flush.
	//rpmlint:ignore hotpathalloc fault injection: disabled injectors return 0 with no allocation; armed runs are chaos tests
	if d := b.faults.Sleep(faults.SiteFlushDelay); d > 0 {
		b.injected.Inc()
	}
	start := time.Now()
	sc := b.scratch.Get().(*flushScratch) //rpmlint:ignore hotpathalloc pooled flush scratch: Pool.Get runs New only until the pool warms
	// Group in place without allocating: each group is gathered, stably,
	// right behind its first request, so groups run in first-arrival
	// order, requests keep arrival order within a group, and the groups
	// share the one pooled dataset. A single-model batch moves nothing.
	for lo := 0; lo < len(batch); {
		name := batch[lo].model
		hi := lo + 1
		for j := hi; j < len(batch); j++ {
			if r := batch[j]; r.model == name {
				copy(batch[hi+1:j+1], batch[hi:j])
				batch[hi] = r
				hi++
			}
		}
		b.flushGroup(name, batch[lo:hi], sc)
		lo = hi
	}
	// Drop the request value references before pooling so an idle batcher
	// does not pin the last batch's series.
	clear(sc.ds[:cap(sc.ds)])
	sc.ds = sc.ds[:0]
	clear(sc.reqs[:cap(sc.reqs)])
	sc.reqs = sc.reqs[:0]
	b.scratch.Put(sc)
	dur := time.Since(start)
	b.batches.Inc()
	b.items.Add(int64(len(batch)))
	b.pool.WorkerTask(0, dur)
	b.pool.RunDone(1, dur)
}

// flushGroup classifies one same-model group of the batch through the
// pooled dataset and distributes labels (or the shared error) back to
// the waiting handlers.
//
// Queue-age admission check: a request whose context expired while it
// sat in the queue is answered with its context error (the handler maps
// it to 504) and excluded from the PredictBatchContext call — it is
// shed before the store lookup, never computed and discarded. A group
// left with no live requests skips the model entirely.
func (b *batcher) flushGroup(name string, group []*predRequest, sc *flushScratch) {
	// Fast path: no expired request means no filtering and no copy.
	live := group
	for i, r := range group {
		if r.ctx != nil && r.ctx.Err() != nil {
			live = b.shedExpired(group, i, sc)
			break
		}
	}
	if len(live) == 0 {
		return
	}
	//rpmlint:ignore hotpathalloc model resolution: the happy path is an atomic load + map read; only error paths build their typed error
	m, err := b.store.Get(name)
	if err != nil {
		for _, r := range live {
			r.out <- predResponse{err: err}
		}
		return
	}
	ds := sc.ds[:0]
	for _, r := range live {
		ds = append(ds, rpm.Instance{Values: r.values}) //rpmlint:ignore hotpathalloc growth bounded by the batch size; pooled scratch keeps the backing array
	}
	sc.ds = ds
	//rpmlint:ignore hotpathalloc classifier batch call returns a fresh labels slice by contract (2 allocs/op, bench-gated); its inner kernel applyInto carries its own hotpath proof
	labels, err := m.clf.PredictBatchContext(context.Background(), ds)
	if err != nil {
		for _, r := range live {
			r.out <- predResponse{err: err}
		}
		return
	}
	for i, r := range live {
		r.out <- predResponse{label: labels[i], model: m}
	}
}

// shedExpired answers every expired request of group from firstExpired
// onward with its context error and returns the surviving requests,
// assembled in sc.reqs (valid until the next group of the same flush
// reuses it — groups run sequentially, and live is consumed before
// flushGroup returns the next time around).
func (b *batcher) shedExpired(group []*predRequest, firstExpired int, sc *flushScratch) []*predRequest {
	live := append(sc.reqs[:0], group[:firstExpired]...)
	for _, r := range group[firstExpired:] {
		if r.ctx != nil && r.ctx.Err() != nil {
			b.expired.Inc()
			r.out <- predResponse{err: r.ctx.Err()}
			continue
		}
		live = append(live, r) //rpmlint:ignore hotpathalloc growth bounded by group size; pooled scratch keeps the backing array
	}
	sc.reqs = live
	return live
}
