// Package stream is the streaming inference subsystem: per-stream
// incremental classification of an append-only signal against a trained
// model's representative patterns (the paper's §6 alarm-suppression case
// study is exactly this shape — a live waveform matched per timepoint,
// not a whole series classified at rest).
//
// The layering mirrors the batch predict path. A Model is the shared,
// immutable per-classifier state: one z-normalized dist.Matcher per
// representative pattern, grouped by pattern length, plus the vector
// predictor that turns a feature vector into a label. A Detector is the
// cheap per-stream state: one sliding sample buffer of the longest
// pattern length, one dist.RollingStats per distinct pattern length
// (O(1) rolling mean/variance per sample), and one two-word
// dist.StreamScan per pattern — tens of bytes per matcher, the budget
// that lets a single process hold the detectors of 100k+ live streams.
//
// Correctness contract (pinned by the property tests): after feeding
// any series through a Detector — sample by sample or in arbitrary
// chunks — every pattern's (distance, argmin position) is bit-identical
// to the batch dist.Matcher.Best sweep over the assembled series, and
// the per-sample raw label equals the batch classifier's Predict over
// the assembled prefix, for every prefix past warm-up. The throughput
// story is only allowed on top of that equivalence.
//
// Events: each appended sample (past warm-up) yields a raw label; a
// hysteresis gate — ConfirmWindows consecutive agreeing samples, then a
// Refractory dead time — turns the raw label flutter into committed
// class-change events with bounded retained history. Events carry
// sample indices, never wall-clock times: the package is fully
// deterministic (it is in rpmlint's deterministic set) and a replayed
// stream reproduces its event log bit for bit.
package stream

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"rpm/internal/dist"
)

// Predictor turns a feature vector (closest-match distance per pattern,
// in pattern order) into a class label. rpm.Classifier.PredictVector is
// the production implementation; tests substitute trivial ones.
//
// Contract: PredictVector must be a pure function of the vector's
// values — equal vectors get equal labels. A Detector relies on it: it
// re-classifies only on samples where some pattern's best match, and
// so some feature, changed, and reuses the previous raw label on every
// other sample.
type Predictor interface {
	PredictVector(feat []float64) int
}

// Model is the shared immutable streaming state of one classifier:
// matchers grouped by pattern length (every pattern of one length reads
// the same rolling window stats, the streaming analogue of
// dist.BestQueryGroup) and the vector predictor. One Model serves any
// number of concurrent Detectors.
type Model struct {
	pred Predictor
	// ordered are the matchers re-sorted into group (length) order;
	// featOf[a] maps ordered[a] back to its feature slot.
	ordered []*dist.Matcher
	featOf  []int
	groups  []dist.Group
	maxLen  int
	k       int
}

// NewModel builds the shared streaming state over the given patterns
// (pattern k feeds feature slot k) and predictor. Every pattern must be
// non-empty and there must be at least one; pred must be non-nil.
func NewModel(patterns [][]float64, pred Predictor) (*Model, error) {
	if len(patterns) == 0 {
		return nil, errors.New("stream: model has no patterns")
	}
	if pred == nil {
		return nil, errors.New("stream: nil predictor")
	}
	m := &Model{pred: pred, k: len(patterns)}
	matchers := make([]*dist.Matcher, len(patterns))
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("stream: pattern %d is empty", i)
		}
		matchers[i] = dist.NewMatcher(p)
		if len(p) > m.maxLen {
			m.maxLen = len(p)
		}
	}
	m.ordered, m.featOf, m.groups = dist.GroupByLen(matchers)
	return m, nil
}

// Event kinds.
const (
	// KindStart is the one-time event committing the first label after
	// warm-up (Prev == Label).
	KindStart = "start"
	// KindChange is a committed class change that survived the
	// hysteresis gate.
	KindChange = "change"
)

// Event is one committed label event of a stream. All fields are
// deterministic functions of the sample stream: Seq is the 0-based
// per-stream event index, Sample the index of the sample that committed
// the event.
type Event struct {
	Seq    int    `json:"seq"`
	Sample int64  `json:"sample"`
	Label  int    `json:"label"`
	Prev   int    `json:"prev"`
	Kind   string `json:"kind"`
}

// Config tunes a Detector. The zero value of each field selects the
// documented default.
type Config struct {
	// ConfirmWindows is the hysteresis depth K: a label change commits
	// only after K consecutive samples classify to the same new label
	// (default 3; 1 commits immediately).
	ConfirmWindows int
	// Refractory is the dead time after a committed change, in samples,
	// during which no further change may commit — the alarm-suppression
	// knob that stops a boundary from re-firing (default 0).
	Refractory int
	// MaxEvents bounds the retained event history per stream
	// (EventsSince replay window; default 256, minimum 1).
	MaxEvents int
}

func (c Config) withDefaults() Config {
	if c.ConfirmWindows <= 0 {
		c.ConfirmWindows = 3
	}
	if c.Refractory < 0 {
		c.Refractory = 0
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 256
	}
	return c
}

// Detector is the per-stream incremental inference state. It is NOT
// safe for concurrent use; the Registry's Stream wrapper serializes
// access. All state is allocated at construction — steady-state Append
// allocates nothing per sample (pinned by the soak test's
// AllocsPerRun).
type Detector struct {
	m   *Model
	cfg Config

	// buf is the sliding window over the stream's tail: the last
	// keep = maxLen+1 samples stay contiguous (windows of every length
	// slice directly out of it; the +1 retains the sample leaving the
	// longest window for the rolling-stats slide). Capacity 2*keep turns
	// the slide into an amortized-O(1) compaction instead of a per-sample
	// copy.
	buf  []float64
	keep int

	stats []dist.RollingStats // one per group (distinct pattern length)
	scans []dist.StreamScan   // one per matcher, grouped ordering
	// feat is the feature vector in pattern order, maintained slot by
	// slot: a slot is rewritten only when its pattern's scan improves.
	feat []float64
	seen int64
	work Work

	started        bool
	raw            int // raw label of the last classification
	label          int // committed label
	cand           int
	candRun        int
	refractoryLeft int

	seq     int     // next event sequence number
	ring    []Event // retained events; cap cfg.MaxEvents
	scratch []Event // events emitted by the Append in progress; starts at scratchCap
}

// Work counts a Detector's closest-match and classification work since
// construction: Windows are the windows scored (one per pattern per
// completed window), WindowsExact those of them that passed the margin
// filter and reached the exact window evaluator, and Classify the
// Predictor calls.
type Work struct {
	Windows, WindowsExact, Classify int64
}

// Sub returns the work done since prev, an earlier reading.
func (w Work) Sub(prev Work) Work {
	return Work{w.Windows - prev.Windows, w.WindowsExact - prev.WindowsExact, w.Classify - prev.Classify}
}

// scratchCap is the event scratch's capacity at construction.
const scratchCap = 4

// NewDetector builds a fresh detector over the model.
func (m *Model) NewDetector(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	keep := m.maxLen + 1
	d := &Detector{
		m:       m,
		cfg:     cfg,
		buf:     make([]float64, 0, 2*keep),
		keep:    keep,
		stats:   make([]dist.RollingStats, len(m.groups)),
		scans:   make([]dist.StreamScan, len(m.ordered)),
		feat:    make([]float64, m.k),
		ring:    make([]Event, 0, cfg.MaxEvents),
		scratch: make([]Event, 0, scratchCap),
	}
	for gi := range d.stats {
		d.stats[gi] = dist.NewRollingStats(m.groups[gi].N)
	}
	for a := range d.scans {
		d.scans[a].Reset()
	}
	for k := range d.feat {
		d.feat[k] = math.Inf(1)
	}
	return d
}

// Append feeds a chunk of samples through the detector and returns the
// events it committed, in order. The returned slice is scratch — valid
// until the next Append; callers that retain events must copy them
// (Registry.Stream does).
//
//rpmlint:hotpath PR8 stream path: 0 allocs/sample at steady state
func (d *Detector) Append(chunk []float64) []Event {
	d.scratch = d.scratch[:0]
	for _, x := range chunk {
		d.push(x)
	}
	return d.scratch
}

// push consumes one sample: slide the buffer, advance every length's
// rolling stats, fold the completed windows into the per-pattern scans
// (the bit-identical streaming Best) and rewrite the feature slot of
// every scan that improved, then classify and run the hysteresis gate.
// The Predictor runs on the first warm sample and after any slot
// changed; otherwise the feature vector, and by the Predictor contract
// the raw label, are the previous sample's.
func (d *Detector) push(x float64) {
	t := d.seen
	if len(d.buf) == cap(d.buf) {
		copy(d.buf[:d.keep], d.buf[len(d.buf)-d.keep:])
		d.buf = d.buf[:d.keep]
	}
	d.buf = append(d.buf, x) //rpmlint:ignore hotpathalloc never grows: the ring slide above caps len at keep < cap
	bl := len(d.buf)
	changed := false
	for gi := range d.m.groups {
		g := &d.m.groups[gi]
		rs := &d.stats[gi]
		var out float64
		if rs.Full() {
			out = d.buf[bl-g.N-1] // the sample leaving this length's window
		}
		mean, inv, ok := rs.Push(x, out)
		if !ok {
			continue // this length's first window is still filling
		}
		pos := int(t) + 1 - g.N
		w := d.buf[bl-g.N : bl]
		var exact int64
		for a := g.Lo; a < g.Hi; a++ {
			mt := d.m.ordered[a]
			improved, ex := mt.StreamEval(&d.scans[a], w, mean, inv, pos)
			if ex {
				exact++
			}
			if improved {
				d.feat[d.m.featOf[a]] = mt.StreamMatch(&d.scans[a]).Dist
				changed = true
			}
		}
		d.work.Windows += int64(g.Hi - g.Lo)
		d.work.WindowsExact += exact
	}
	d.seen = t + 1
	if !d.Warm() {
		return
	}
	if changed || !d.started {
		//rpmlint:ignore hotpathalloc Predictor is the svm adapter; svm.Model.Predict carries its own hotpath proof
		d.raw = d.m.pred.PredictVector(d.feat)
		d.work.Classify++
	}
	raw := d.raw
	if !d.started {
		d.started = true
		d.label = raw
		d.cand = raw
		d.emit(KindStart, t, raw, raw)
		return
	}
	if d.refractoryLeft > 0 {
		// Dead time: observe but never accumulate toward a change, so a
		// just-committed boundary cannot immediately re-fire.
		d.refractoryLeft--
		d.cand = d.label
		d.candRun = 0
		return
	}
	if raw == d.label {
		d.cand = d.label
		d.candRun = 0
		return
	}
	if raw == d.cand {
		d.candRun++
	} else {
		d.cand = raw
		d.candRun = 1
	}
	if d.candRun >= d.cfg.ConfirmWindows {
		d.emit(KindChange, t, raw, d.label)
		d.label = raw
		d.cand = raw
		d.candRun = 0
		d.refractoryLeft = d.cfg.Refractory
	}
}

// emit appends an event to the retained ring and the Append scratch.
func (d *Detector) emit(kind string, sample int64, label, prev int) {
	e := Event{Seq: d.seq, Sample: sample, Label: label, Prev: prev, Kind: kind}
	d.seq++
	if len(d.ring) < cap(d.ring) {
		d.ring = append(d.ring, e) //rpmlint:ignore hotpathalloc guarded by len < cap: fills the preallocated ring, never grows it
	} else {
		d.ring[e.Seq%cap(d.ring)] = e
	}
	d.scratch = append(d.scratch, e) //rpmlint:ignore hotpathalloc grows to the per-Append event high-water mark, then reused
}

// Seen returns the number of samples consumed.
func (d *Detector) Seen() int64 { return d.seen }

// Warm reports whether classification has begun: warm-up lasts exactly
// the longest pattern length, the earliest point at which every feature
// is a real window distance.
func (d *Detector) Warm() bool { return d.seen >= int64(d.m.maxLen) }

// Label returns the committed (hysteresis-gated) label; ok is false
// until warm-up completes.
func (d *Detector) Label() (label int, ok bool) { return d.label, d.started }

// EventSeq returns the next event sequence number (== events committed
// so far).
func (d *Detector) EventSeq() int { return d.seq }

// EventsSince returns a copy of the retained events with Seq > since,
// in order. since -1 replays the full retained window. Events older
// than the MaxEvents ring have been discarded; callers needing a
// lossless horizon size the ring accordingly.
func (d *Detector) EventsSince(since int) []Event {
	lo := d.seq - len(d.ring)
	if lo <= since {
		lo = since + 1
	}
	if lo >= d.seq {
		return nil
	}
	out := make([]Event, 0, d.seq-lo)
	for s := lo; s < d.seq; s++ {
		out = append(out, d.ring[s%cap(d.ring)])
	}
	return out
}

// Matches writes each pattern's current streaming Match (distance and
// argmin position over all complete windows so far) into out, which
// must have NumPatterns entries. It exists for the equivalence tests.
func (d *Detector) Matches(out []dist.Match) {
	if len(out) != d.m.k {
		panic("stream: Matches out length mismatch")
	}
	for a, mt := range d.m.ordered {
		out[d.m.featOf[a]] = mt.StreamMatch(&d.scans[a])
	}
}

// Features writes the current feature vector (per-pattern streaming
// distances, +Inf where no window is complete) into out, which must
// have NumPatterns entries.
func (d *Detector) Features(out []float64) {
	if len(out) != d.m.k {
		panic("stream: Features out length mismatch")
	}
	copy(out, d.feat)
}

// Work returns the detector's work counts since construction.
func (d *Detector) Work() Work { return d.work }

// Bytes returns the detector's memory footprint in bytes as constructed
// (the per-stream budget the Registry's byte gauge sums). It is fixed at
// construction: every buffer but the event scratch is sized then and
// never grows, and the scratch, which grows to the largest Append's
// event count, is counted at its initial capacity.
func (d *Detector) Bytes() int {
	const (
		f64   = int(unsafe.Sizeof(float64(0)))
		stat  = int(unsafe.Sizeof(dist.RollingStats{}))
		scan  = int(unsafe.Sizeof(dist.StreamScan{}))
		event = int(unsafe.Sizeof(Event{}))
	)
	return int(unsafe.Sizeof(*d)) +
		cap(d.buf)*f64 +
		len(d.stats)*stat +
		len(d.scans)*scan +
		len(d.feat)*f64 +
		cap(d.ring)*event +
		scratchCap*event
}
