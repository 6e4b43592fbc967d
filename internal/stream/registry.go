package stream

import (
	"errors"
	"sort"
	"sync"
)

// Registry errors. The serve layer maps these onto the HTTP error
// taxonomy (404 / 429 / 503); inside this package they are plain
// sentinels.
var (
	// ErrTooManyStreams means the registry is at its stream capacity.
	ErrTooManyStreams = errors.New("stream: registry at stream capacity")
	// ErrClosed means the registry (or the individual stream) has been
	// closed and accepts no further work.
	ErrClosed = errors.New("stream: closed")
)

// Registry holds the live streams of a process: bounded in count and
// byte-accounted, with a two-phase shutdown (Drain wakes and detaches
// every subscriber so blocked readers exit; Close then tears the
// streams down). All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	streams    map[string]*Stream
	maxStreams int
	bytes      int64
	closed     bool
}

// NewRegistry returns an empty registry capped at maxStreams live
// streams (maxStreams <= 0 means unbounded).
func NewRegistry(maxStreams int) *Registry {
	return &Registry{
		streams:    make(map[string]*Stream),
		maxStreams: maxStreams,
	}
}

// GetOrCreate returns the stream with the given id, creating it via
// create when absent. create runs under the registry lock (it only
// builds a Detector — cheap, no I/O) and may veto creation by returning
// an error. created reports whether this call made the stream.
func (r *Registry) GetOrCreate(id string, create func() (*Detector, any, error)) (st *Stream, created bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, false, ErrClosed
	}
	if st, ok := r.streams[id]; ok {
		return st, false, nil
	}
	if r.maxStreams > 0 && len(r.streams) >= r.maxStreams {
		return nil, false, ErrTooManyStreams
	}
	det, tag, err := create()
	if err != nil {
		return nil, false, err
	}
	st = &Stream{ID: id, Tag: tag, det: det, bytes: int64(det.Bytes())}
	r.streams[id] = st
	r.bytes += st.bytes
	return st, true, nil
}

// Get returns the stream with the given id, if live.
func (r *Registry) Get(id string) (*Stream, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.streams[id]
	return st, ok
}

// Remove closes and drops the stream with the given id, returning
// whether it existed. Its subscribers are woken and detached.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	st, ok := r.streams[id]
	if ok {
		delete(r.streams, id)
		r.bytes -= st.bytes
	}
	r.mu.Unlock()
	if ok {
		st.close()
	}
	return ok
}

// Len returns the number of live streams.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.streams)
}

// Bytes returns the summed footprint of all live detectors, each charged
// once at creation — the gauge the serve layer exports and the soak test
// bounds.
func (r *Registry) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// IDs returns the live stream ids, sorted.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	ids := make([]string, 0, len(r.streams))
	for id := range r.streams {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// snapshot returns the live streams in sorted-id order (deterministic
// teardown for Drain/Close).
func (r *Registry) snapshot() []*Stream {
	ids := r.IDs()
	out := make([]*Stream, 0, len(ids))
	r.mu.Lock()
	for _, id := range ids {
		if st, ok := r.streams[id]; ok {
			out = append(out, st)
		}
	}
	r.mu.Unlock()
	return out
}

// Drain wakes and detaches every subscriber of every live stream
// without tearing the streams down. In the serve layer this runs at the
// start of graceful shutdown so SSE handlers parked on a subscriber
// channel exit and http.Server.Shutdown can complete; the streams stay
// readable until Close.
func (r *Registry) Drain() {
	for _, st := range r.snapshot() {
		st.detachSubs()
	}
}

// Close drains and tears down every stream and marks the registry
// closed; further GetOrCreate/Append calls fail with ErrClosed.
func (r *Registry) Close() {
	streams := r.snapshot()
	r.mu.Lock()
	r.closed = true
	r.streams = make(map[string]*Stream)
	r.bytes = 0
	r.mu.Unlock()
	for _, st := range streams {
		st.close()
	}
}

// Stream is one live stream: a Detector plus the subscriber fan-out,
// serialized by its own mutex so appends from concurrent requests are
// totally ordered. Created via Registry.GetOrCreate.
type Stream struct {
	ID string
	// Tag is opaque caller state carried with the stream (the serve
	// layer stores which model version answers it).
	Tag any

	// bytes is the registry's charge for this stream, fixed at creation
	// so Remove releases exactly what GetOrCreate added.
	bytes int64

	mu     sync.Mutex
	det    *Detector
	subs   []*Sub
	closed bool
}

// AppendResult is the post-append snapshot an Append observer needs:
// totals, the committed label, copies of the events this append
// emitted, and the detector work it did (zero from State).
type AppendResult struct {
	Seen    int64
	Warm    bool
	Label   int
	Started bool
	Seq     int
	Events  []Event
	Work    Work
}

// Append feeds a chunk through the stream's detector and wakes
// subscribers if events were committed. The returned Events slice is a
// copy, safe to retain.
func (s *Stream) Append(chunk []float64) (AppendResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return AppendResult{}, ErrClosed
	}
	before := s.det.Work()
	evs := s.det.Append(chunk)
	res := AppendResult{
		Seen: s.det.Seen(),
		Warm: s.det.Warm(),
		Seq:  s.det.EventSeq(),
		Work: s.det.Work().Sub(before),
	}
	res.Label, res.Started = s.det.Label()
	if len(evs) > 0 {
		res.Events = append([]Event(nil), evs...)
	}
	notify := len(evs) > 0
	var subs []*Sub
	if notify {
		subs = s.subs
	}
	if notify {
		// Wake subscribers while still holding the lock: close() also
		// runs under it, so a notify can never race a channel close.
		for _, sub := range subs {
			select {
			case sub.notify <- struct{}{}:
			default: // already pending; subscriber will catch up via EventsSince
			}
		}
	}
	s.mu.Unlock()
	return res, nil
}

// State returns the stream's current totals without mutating it.
func (s *Stream) State() AppendResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := AppendResult{
		Seen: s.det.Seen(),
		Warm: s.det.Warm(),
		Seq:  s.det.EventSeq(),
	}
	res.Label, res.Started = s.det.Label()
	return res
}

// EventsSince returns a copy of the retained events with Seq > since.
func (s *Stream) EventsSince(since int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.det.EventsSince(since)
}

// Subscribe registers an event subscriber. The returned Sub's Wait
// channel receives a (coalesced) token whenever the stream commits
// events, and is closed when the stream closes or the registry drains;
// consumers then read the actual events via EventsSince with their own
// cursor. Fails with ErrClosed on a closed stream.
func (s *Stream) Subscribe() (*Sub, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	sub := &Sub{stream: s, notify: make(chan struct{}, 1)}
	s.subs = append(s.subs, sub)
	return sub, nil
}

// Sub is one event subscription on a stream.
type Sub struct {
	stream *Stream
	notify chan struct{}
	done   bool // guarded by stream.mu; true once notify is closed
}

// Wait returns the notification channel: one token per wake-up
// (coalesced), closed on stream close or registry drain.
func (s *Sub) Wait() <-chan struct{} { return s.notify }

// Close detaches the subscription. Safe to call after the stream has
// already detached it.
func (s *Sub) Close() {
	st := s.stream
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, sub := range st.subs {
		if sub == s {
			st.subs = append(st.subs[:i], st.subs[i+1:]...)
			break
		}
	}
	if !s.done {
		s.done = true
		close(s.notify)
	}
}

// detachSubs wakes and detaches every subscriber (close of the notify
// channel) without closing the stream.
func (s *Stream) detachSubs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		if !sub.done {
			sub.done = true
			close(sub.notify)
		}
	}
	s.subs = nil
}

// close marks the stream closed and detaches subscribers.
func (s *Stream) close() {
	s.mu.Lock()
	s.closed = true
	for _, sub := range s.subs {
		if !sub.done {
			sub.done = true
			close(sub.notify)
		}
	}
	s.subs = nil
	s.mu.Unlock()
}
