package serve

// Streaming inference endpoints (DESIGN.md §14): a stream is a named,
// append-only signal classified incrementally against one model
// version. POST /v1/streams/{id} appends a chunk of samples (creating
// the stream on first touch), GET /v1/streams/{id}/events is the SSE
// feed of committed class-change events with Last-Event-ID resume.
// All detector state lives in internal/stream; this file is only the
// HTTP boundary, the obs accounting, and the fault seams.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"rpm"
	"rpm/internal/faults"
	serveclient "rpm/internal/serve/client"
	"rpm/internal/stream"
)

// Unexported stream-path sentinels, mapped by errorStatus.
var (
	errUnknownStream = errors.New("unknown stream")
	errChunkTooLarge = errors.New("stream chunk too large")
)

// streamState is the per-stream view every stream endpoint returns.
type streamState struct {
	ID      string `json:"id"`
	Model   string `json:"model"`
	Version int    `json:"version"`
	Seen    int64  `json:"seen"`
	Warm    bool   `json:"warm"`
	// Label is the committed (hysteresis-gated) class; present once warm.
	Label *int `json:"label,omitempty"`
	// Events is the number of events committed so far (the next SSE
	// event's seq).
	Events int `json:"events"`
}

type streamAppendResponse struct {
	streamState
	// Created reports whether this append created the stream.
	Created bool `json:"created,omitempty"`
	// Appended is the number of samples this append consumed.
	Appended int `json:"appended"`
	// NewEvents are the events this append committed, in order.
	NewEvents []stream.Event `json:"newEvents,omitempty"`
}

// boundModel reads the model a stream was created against.
func boundModel(st *stream.Stream) *Model { return st.Tag.(*Model) }

// stateOf is a stream's view after res, the result of its last append
// or its current State.
func stateOf(st *stream.Stream, res stream.AppendResult) streamState {
	m := boundModel(st)
	out := streamState{
		ID:      st.ID,
		Model:   m.Name,
		Version: m.Version,
		Seen:    res.Seen,
		Warm:    res.Warm,
		Events:  res.Seq,
	}
	if res.Started {
		l := res.Label
		out.Label = &l
	}
	return out
}

// validateChunk rejects an empty, oversized, or non-finite chunk with
// the typed taxonomy (the fuzz target's contract: hostile chunks are
// 4xx envelopes, never panics or 500s).
func (s *Server) validateChunk(values []float64) error {
	if len(values) == 0 {
		return fmt.Errorf("%w: empty chunk", rpm.ErrBadInput)
	}
	if len(values) > s.cfg.MaxStreamChunk {
		return fmt.Errorf("%w: %d samples (max %d per append)", errChunkTooLarge, len(values), s.cfg.MaxStreamChunk)
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: chunk value %d is not finite", rpm.ErrBadInput, i)
		}
	}
	return nil
}

// handleStreamAppend serves POST /v1/streams/{id}: append a chunk to
// the stream, creating it against the resolved model on first touch.
func (s *Server) handleStreamAppend(w http.ResponseWriter, r *http.Request) {
	clock := stageClock{last: time.Now(), stage: s.streamDecode}
	start := clock.last
	defer func() {
		clock.enter(nil)
		d := clock.last.Sub(start)
		s.latStream.Observe(d)
		s.spanStream.Add(d)
	}()
	s.reqStream.Inc()
	id := r.PathValue("id")
	// The append body has the predict request's {model, values} shape;
	// Model binds the model only on the append that creates the stream.
	var req serveclient.PredictRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeErrorFor(w, err)
		return
	}
	clock.enter(s.streamCompute)
	if err := s.validateChunk(req.Values); err != nil {
		s.writeErrorFor(w, err)
		return
	}
	// Injected stream saturation (faults.SiteStreamAppend): shed with
	// 429 before touching the registry, so a shed append provably
	// consumes no samples and commits no events.
	if s.faults.Fire(faults.SiteStreamAppend) {
		s.injected.Inc()
		s.shed.Inc()
		s.writeError(w, http.StatusTooManyRequests, "overloaded", "stream layer saturated (injected)")
		return
	}
	st, created, err := s.streams.GetOrCreate(id, func() (*stream.Detector, any, error) {
		m, err := s.store.Get(req.Model)
		if err != nil {
			return nil, nil, err
		}
		sm, err := m.StreamModel()
		if err != nil {
			return nil, nil, err
		}
		return sm.NewDetector(s.cfg.Stream), m, nil
	})
	if err != nil {
		s.writeErrorFor(w, err)
		return
	}
	m := boundModel(st)
	if created {
		s.streamsMade.Inc()
		s.gaugeStreams.Set(int64(s.streams.Len()))
		s.gaugeStrBytes.Set(s.streams.Bytes())
	} else if req.Model != "" && req.Model != m.Name {
		s.writeError(w, http.StatusBadRequest, "bad_input",
			fmt.Sprintf("stream %q is bound to model %q, not %q", id, m.Name, req.Model))
		return
	}
	res, err := st.Append(req.Values)
	if err != nil {
		s.writeErrorFor(w, err)
		return
	}
	s.streamSamples.Add(int64(len(req.Values)))
	s.streamEvents.Add(int64(len(res.Events)))
	s.streamWindows.Add(res.Work.Windows)
	s.streamExact.Add(res.Work.WindowsExact)
	s.streamClassify.Add(res.Work.Classify)
	clock.enter(nil)
	s.writeResult(w, streamAppendResponse{
		streamState: stateOf(st, res),
		Created:     created,
		Appended:    len(req.Values),
		NewEvents:   res.Events,
	})
}

// getStream resolves a live stream or writes the 404 envelope.
func (s *Server) getStream(w http.ResponseWriter, id string) (*stream.Stream, bool) {
	st, ok := s.streams.Get(id)
	if !ok {
		s.writeErrorFor(w, fmt.Errorf("%w: %q", errUnknownStream, id))
		return nil, false
	}
	return st, true
}

// handleStreamGet serves GET /v1/streams/{id}: the stream's state.
func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.getStream(w, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, stateOf(st, st.State()))
}

// handleStreamDelete serves DELETE /v1/streams/{id}: close and drop the
// stream, ending its event feeds.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.streams.Remove(id) {
		s.writeErrorFor(w, fmt.Errorf("%w: %q", errUnknownStream, id))
		return
	}
	s.streamsClosed.Inc()
	s.gaugeStreams.Set(int64(s.streams.Len()))
	s.gaugeStrBytes.Set(s.streams.Bytes())
	writeJSON(w, map[string]any{"id": id, "deleted": true})
}

// handleStreamList serves GET /v1/streams.
func (s *Server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	ids := s.streams.IDs()
	out := make([]streamState, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.streams.Get(id); ok {
			out = append(out, stateOf(st, st.State()))
		}
	}
	writeJSON(w, map[string]any{"streams": out, "bytes": s.streams.Bytes()})
}

// handleStreamEvents serves GET /v1/streams/{id}/events: a Server-Sent
// Events feed of the stream's committed events. Each event is
//
//	id: <seq>
//	event: <start|change>
//	data: {"seq":..,"sample":..,"label":..,"prev":..,"kind":".."}
//
// The feed first replays retained history — all of it by default, or
// events after the cursor in Last-Event-ID (standard SSE resume) or
// ?since=<seq> — then follows the stream until it is deleted, the
// server drains, or the client disconnects. Within the retained-ring
// horizon (Config.Stream.MaxEvents) a reconnecting client loses nothing
// and duplicates nothing: event seqs are per-stream, dense, and
// deterministic, which is exactly what the chaos suite diffs.
func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	st, ok := s.getStream(w, r.PathValue("id"))
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	cursor := -1 // default: replay the full retained window
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			cursor = n
		}
	}
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_input", "since must be an integer event seq")
			return
		}
		cursor = n
	}
	sub, err := st.Subscribe()
	if err != nil {
		s.writeErrorFor(w, err) // closed concurrently: 503 draining
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush() // commit headers so clients see the feed is live
	for {
		for _, e := range st.EventsSince(cursor) {
			// Injected subscriber death (faults.SiteSSEWrite): the
			// connection aborts mid-feed; the stream is untouched and a
			// reconnect with Last-Event-ID resumes at the cursor.
			if s.faults.Fire(faults.SiteSSEWrite) {
				s.injected.Inc()
				panic(http.ErrAbortHandler)
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: {\"seq\":%d,\"sample\":%d,\"label\":%d,\"prev\":%d,\"kind\":%q}\n\n",
				e.Seq, e.Kind, e.Seq, e.Sample, e.Label, e.Prev, e.Kind)
			cursor = e.Seq
		}
		// Injected slow subscriber (faults.SiteSSEFlush): stall before the
		// flush; pending notifications coalesce and the next EventsSince
		// catches the feed up without loss or duplication.
		if d := s.faults.Sleep(faults.SiteSSEFlush); d > 0 {
			s.injected.Inc()
		}
		flusher.Flush()
		select {
		case _, open := <-sub.Wait():
			if !open {
				return // stream deleted or server draining
			}
		case <-r.Context().Done():
			return
		}
	}
}
