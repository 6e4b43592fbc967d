package stream

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rpm/internal/dist"
)

// vecIndex numbers feature vectors (of at most four features) in order
// of first appearance. A predictor that labels by this number is a pure
// function of the vector, as the Predictor contract requires, yet fully
// scripted. Sized with room for hint vectors, it inserts without
// allocating.
type vecIndex map[[4]uint64]int

func newVecIndex(hint int) vecIndex { return make(vecIndex, hint) }

func (v vecIndex) of(feat []float64) int {
	var key [4]uint64
	if len(feat) > len(key) {
		panic("vecIndex: more than four features")
	}
	for k, f := range feat {
		key[k] = math.Float64bits(f)
	}
	i, ok := v[key]
	if !ok {
		i = len(v)
		v[key] = i
	}
	return i
}

// scriptPred gives the i-th distinct feature vector labels[i], repeating
// the last label — full control over the raw-label sequence the
// hysteresis gate sees, independent of any real model arithmetic, when
// the input is one on which the feature vector changes at every sample
// (improving).
type scriptPred struct {
	labels []int
	seen   vecIndex
}

func (p *scriptPred) PredictVector(feat []float64) int {
	if p.seen == nil {
		p.seen = newVecIndex(len(p.labels))
	}
	return p.labels[min(p.seen.of(feat), len(p.labels)-1)]
}

// improving returns n samples on which every ramp-shaped pattern of
// length 3 to 16 improves its best match at every sample (checked up to
// 16,000 samples), so the detector classifies every warm sample: a ramp
// plus an alternating term that shrinks as 1/(t+1), which brings each
// window strictly closer to a straight line than the one before.
func improving(n int) []float64 {
	v := make([]float64, n)
	for t := range v {
		a := 0.5 / float64(t+1)
		if t%2 == 1 {
			a = -a
		}
		v[t] = float64(t) + a
	}
	return v
}

// classifiesEverySample fails the test unless d has classified every
// warm sample — the premise of the scripted-label tests.
func classifiesEverySample(t *testing.T, d *Detector) {
	t.Helper()
	if warm := d.Seen() - int64(d.m.maxLen) + 1; d.Work().Classify != warm {
		t.Fatalf("classified %d of %d warm samples; the input must move the best match on every sample", d.Work().Classify, warm)
	}
}

// argminPred labels by the index of the smallest feature (strict <, so
// ties keep the earlier pattern) — a deterministic stand-in for the SVM.
type argminPred struct{}

func (argminPred) PredictVector(feat []float64) int {
	best, arg := math.Inf(1), 0
	for k, f := range feat {
		if f < best {
			best, arg = f, k
		}
	}
	return arg
}

func mustModel(t *testing.T, patterns [][]float64, pred Predictor) *Model {
	t.Helper()
	m, err := NewModel(patterns, pred)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ramp returns a strictly increasing pattern of length n (never
// constant, so windows z-normalize cleanly).
func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

func TestNewModelRejectsBadInputs(t *testing.T) {
	if _, err := NewModel(nil, argminPred{}); err == nil {
		t.Fatal("no patterns accepted")
	}
	if _, err := NewModel([][]float64{{1, 2}, {}}, argminPred{}); err == nil {
		t.Fatal("empty pattern accepted")
	}
	if _, err := NewModel([][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("nil predictor accepted")
	}
	m := mustModel(t, [][]float64{ramp(4), ramp(7), ramp(4)}, argminPred{})
	if m.k != 3 || m.maxLen != 7 {
		t.Fatalf("k=%d maxLen=%d", m.k, m.maxLen)
	}
}

// TestHysteresisGate scripts the raw-label sequence and pins exactly
// which samples commit events: the start event at warm-up, flutter
// shorter than ConfirmWindows suppressed, a K-run committing on its
// K-th sample.
func TestHysteresisGate(t *testing.T) {
	pred := &scriptPred{labels: []int{
		0, 0, // samples 3,4: start at 0, stay
		1,       // 5: flutter, run 1
		0,       // 6: back, run resets
		1, 1, 1, // 7,8,9: K=3 run commits at sample 9
		1, 1, // stays
	}}
	m := mustModel(t, [][]float64{ramp(4)}, pred)
	d := m.NewDetector(Config{ConfirmWindows: 3, MaxEvents: 16})
	evs := d.Append(improving(12))
	classifiesEverySample(t, d)
	want := []Event{
		{Seq: 0, Sample: 3, Label: 0, Prev: 0, Kind: KindStart},
		{Seq: 1, Sample: 9, Label: 1, Prev: 0, Kind: KindChange},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events %+v, want %+v", evs, want)
	}
	if l, ok := d.Label(); !ok || l != 1 {
		t.Fatalf("Label() = %d,%v want 1,true", l, ok)
	}
}

// TestRefractory pins the dead time: after a commit, Refractory samples
// pass without accumulating toward a change, so the next change needs a
// fresh full K-run after the dead time.
func TestRefractory(t *testing.T) {
	pred := &scriptPred{labels: []int{
		0,    // sample 2: start
		1, 1, // 3,4: K=2 run commits at 4, refractory 3 begins
		0, 0, 0, // 5,6,7: inside dead time — ignored
		0,    // 8: run 1
		0,    // 9: run 2 → commits at 9
		0, 0, // stays
	}}
	m := mustModel(t, [][]float64{ramp(3)}, pred)
	d := m.NewDetector(Config{ConfirmWindows: 2, Refractory: 3, MaxEvents: 16})
	evs := d.Append(improving(12))
	classifiesEverySample(t, d)
	want := []Event{
		{Seq: 0, Sample: 2, Label: 0, Prev: 0, Kind: KindStart},
		{Seq: 1, Sample: 4, Label: 1, Prev: 0, Kind: KindChange},
		{Seq: 2, Sample: 9, Label: 0, Prev: 1, Kind: KindChange},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events %+v, want %+v", evs, want)
	}
}

// TestWarmup pins that nothing is classified before the warm-up
// boundary, the longest pattern length.
func TestWarmup(t *testing.T) {
	m := mustModel(t, [][]float64{ramp(5)}, &scriptPred{labels: []int{7}})
	d := m.NewDetector(Config{})
	if evs := d.Append(ramp(4)); len(evs) != 0 {
		t.Fatalf("events before warm-up: %+v", evs)
	}
	if _, ok := d.Label(); ok {
		t.Fatal("Label ok before warm-up")
	}
	if d.Warm() {
		t.Fatal("Warm before warm-up")
	}
	evs := d.Append(ramp(1))
	if len(evs) != 1 || evs[0].Kind != KindStart || evs[0].Sample != 4 {
		t.Fatalf("start event %+v", evs)
	}
	if l, ok := d.Label(); !ok || l != 7 {
		t.Fatalf("Label = %d,%v", l, ok)
	}
	if !d.Warm() || d.Seen() != 5 {
		t.Fatalf("Warm=%v Seen=%d", d.Warm(), d.Seen())
	}
}

// TestEventsSinceRing pins the bounded-history semantics: the ring
// retains the last MaxEvents events, EventsSince(-1) replays them all,
// a cursor replays only the tail, and older events are discarded.
func TestEventsSinceRing(t *testing.T) {
	// Alternate labels with K=1 → one change event per sample.
	pred := &scriptPred{}
	for i := 0; i < 32; i++ {
		pred.labels = append(pred.labels, i%2)
	}
	m := mustModel(t, [][]float64{ramp(3)}, pred)
	d := m.NewDetector(Config{ConfirmWindows: 1, MaxEvents: 4})
	d.Append(improving(21)) // 19 classified samples → 19 events
	classifiesEverySample(t, d)
	if d.EventSeq() != 19 {
		t.Fatalf("EventSeq = %d, want 19", d.EventSeq())
	}
	all := d.EventsSince(-1)
	if len(all) != 4 {
		t.Fatalf("retained %d events, want 4", len(all))
	}
	for i, e := range all {
		if e.Seq != 15+i {
			t.Fatalf("retained window starts at seq %d, want 15..18: %+v", e.Seq, all)
		}
	}
	tail := d.EventsSince(17)
	if len(tail) != 1 || tail[0].Seq != 18 {
		t.Fatalf("EventsSince(17) = %+v", tail)
	}
	if got := d.EventsSince(18); len(got) != 0 {
		t.Fatalf("EventsSince(head) = %+v", got)
	}
}

// TestChunkingInvariance pins that how a series is chunked is
// unobservable: per-sample, whole-series, and random-chunk feeding all
// yield bit-identical features, matches, labels, and event logs.
func TestChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	patterns := [][]float64{ramp(3), ramp(8), ramp(5), ramp(8)}
	series := make([]float64, 300)
	x := 0.0
	for i := range series {
		x += rng.NormFloat64()
		series[i] = x
	}
	cfg := Config{ConfirmWindows: 2, Refractory: 4, MaxEvents: 64}
	feed := func(chunks [][]float64) (*Detector, []Event) {
		m := mustModel(t, patterns, argminPred{})
		d := m.NewDetector(cfg)
		var evs []Event
		for _, c := range chunks {
			evs = append(evs, d.Append(c)...)
		}
		return d, evs
	}
	// Reference: one sample at a time.
	var perSample [][]float64
	for _, v := range series {
		perSample = append(perSample, []float64{v})
	}
	ref, refEvs := feed(perSample)

	for trial := 0; trial < 5; trial++ {
		var chunks [][]float64
		if trial == 0 {
			chunks = [][]float64{series}
		} else {
			for i := 0; i < len(series); {
				n := 1 + rng.Intn(40)
				if i+n > len(series) {
					n = len(series) - i
				}
				chunks = append(chunks, series[i:i+n])
				i += n
			}
		}
		d, evs := feed(chunks)
		if !reflect.DeepEqual(evs, refEvs) {
			t.Fatalf("trial %d: events diverged:\n%+v\nvs\n%+v", trial, evs, refEvs)
		}
		refFeat, feat := make([]float64, 4), make([]float64, 4)
		ref.Features(refFeat)
		d.Features(feat)
		for k := range feat {
			if math.Float64bits(feat[k]) != math.Float64bits(refFeat[k]) {
				t.Fatalf("trial %d: feature %d differs: %v vs %v", trial, k, feat[k], refFeat[k])
			}
		}
		refM, gotM := make([]dist.Match, 4), make([]dist.Match, 4)
		ref.Matches(refM)
		d.Matches(gotM)
		if !reflect.DeepEqual(refM, gotM) {
			t.Fatalf("trial %d: matches diverged: %+v vs %+v", trial, gotM, refM)
		}
	}
}

// TestDetectorBytes pins that the footprint is fixed at construction:
// Bytes is positive and does not grow no matter how much is appended.
func TestDetectorBytes(t *testing.T) {
	m := mustModel(t, [][]float64{ramp(16), ramp(4)}, argminPred{})
	d := m.NewDetector(Config{MaxEvents: 8})
	before := d.Bytes()
	if before <= 0 {
		t.Fatalf("Bytes = %d", before)
	}
	for i := 0; i < 50; i++ {
		d.Append(ramp(97))
	}
	if after := d.Bytes(); after != before {
		t.Fatalf("footprint grew: %d → %d", before, after)
	}

	// A label flip on every window commits an event per sample, growing
	// the Append scratch far past its initial capacity; Bytes stays put.
	flip := mustModel(t, [][]float64{ramp(4)}, newFlipPred()).NewDetector(Config{ConfirmWindows: 1})
	before = flip.Bytes()
	if evs := flip.Append(improving(200)); len(evs) <= scratchCap {
		t.Fatalf("flipping predictor emitted %d events, want > %d", len(evs), scratchCap)
	}
	if after := flip.Bytes(); after != before {
		t.Fatalf("footprint moved with the event scratch: %d → %d", before, after)
	}
}

// ---------------------------------------------------------------------------
// Registry

func regModel(t *testing.T) *Model {
	t.Helper()
	return mustModel(t, [][]float64{ramp(4)}, argminPred{})
}

func create(m *Model) func() (*Detector, any, error) {
	return func() (*Detector, any, error) { return m.NewDetector(Config{}), nil, nil }
}

func TestRegistryLifecycle(t *testing.T) {
	m := regModel(t)
	r := NewRegistry(2)
	a, created, err := r.GetOrCreate("a", create(m))
	if err != nil || !created || a.ID != "a" {
		t.Fatalf("create a: %v %v", created, err)
	}
	a2, created, err := r.GetOrCreate("a", create(m))
	if err != nil || created || a2 != a {
		t.Fatalf("get a: %v %v", created, err)
	}
	if _, _, err := r.GetOrCreate("b", create(m)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.GetOrCreate("c", create(m)); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("over capacity: %v", err)
	}
	if got := r.IDs(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("IDs = %v", got)
	}
	if r.Len() != 2 || r.Bytes() != 2*int64(a.det.Bytes()) {
		t.Fatalf("Len=%d Bytes=%d det=%d", r.Len(), r.Bytes(), a.det.Bytes())
	}
	// A stream whose appends grow its detector's event scratch is
	// released at exactly the charge it was created with.
	flipM := mustModel(t, [][]float64{ramp(4)}, newFlipPred())
	r2 := NewRegistry(0)
	f, _, err := r2.GetOrCreate("f", func() (*Detector, any, error) {
		return flipM.NewDetector(Config{ConfirmWindows: 1}), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	charged := r2.Bytes()
	if res, err := f.Append(improving(200)); err != nil || len(res.Events) <= scratchCap {
		t.Fatalf("flipping append: %d events, %v", len(res.Events), err)
	}
	if got := r2.Bytes(); got != charged {
		t.Fatalf("gauge moved on append: %d → %d", charged, got)
	}
	if !r2.Remove("f") || r2.Bytes() != 0 {
		t.Fatalf("after remove: Bytes=%d, want 0", r2.Bytes())
	}
	if !r.Remove("a") || r.Remove("a") {
		t.Fatal("Remove not idempotent-correct")
	}
	if r.Len() != 1 {
		t.Fatalf("Len after remove = %d", r.Len())
	}
	if _, err := a.Append([]float64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on removed stream: %v", err)
	}
	// Creation error propagates and creates nothing.
	boom := errors.New("boom")
	if _, _, err := r.GetOrCreate("x", func() (*Detector, any, error) { return nil, nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("create error: %v", err)
	}
	if r.Len() != 1 {
		t.Fatal("failed create leaked a stream")
	}
	r.Close()
	if _, _, err := r.GetOrCreate("z", create(m)); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if r.Len() != 0 || r.Bytes() != 0 {
		t.Fatalf("after close: Len=%d Bytes=%d", r.Len(), r.Bytes())
	}
}

// TestRegistryAppendRemoveRace appends to and removes one stream
// concurrently (run under -race): Remove must not read the detector an
// in-flight Append is mutating, and the gauge must end at zero.
func TestRegistryAppendRemoveRace(t *testing.T) {
	m := mustModel(t, [][]float64{ramp(4)}, newFlipPred())
	series := improving(500)
	for i := 0; i < 20; i++ {
		r := NewRegistry(0)
		st, _, err := r.GetOrCreate("s", func() (*Detector, any, error) {
			return m.NewDetector(Config{ConfirmWindows: 1}), nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if _, err := st.Append(series[50*k : 50*(k+1)]); err != nil && !errors.Is(err, ErrClosed) {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			r.Remove("s")
		}()
		wg.Wait()
		if got := r.Bytes(); got != 0 {
			t.Fatalf("round %d: Bytes after remove = %d, want 0", i, got)
		}
	}
}

// TestSubscribeNotify pins the subscriber contract: a committed event
// wakes subscribers (coalesced), EventsSince with a cursor reads
// exactly the new events, and Drain closes the channel without killing
// the stream.
func TestSubscribeNotify(t *testing.T) {
	m := mustModel(t, [][]float64{ramp(3)}, &scriptPred{labels: []int{0, 1, 1, 0, 0}})
	r := NewRegistry(0)
	st, _, err := r.GetOrCreate("s", func() (*Detector, any, error) {
		return m.NewDetector(Config{ConfirmWindows: 2, MaxEvents: 8}), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := st.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	series := improving(8)
	res, err := st.Append(series[:3]) // sample 2 classifies: start event
	if err != nil || len(res.Events) != 1 {
		t.Fatalf("append: %+v %v", res, err)
	}
	select {
	case _, open := <-sub.Wait():
		if !open {
			t.Fatal("notify closed prematurely")
		}
	default:
		t.Fatal("no wake-up after a committed event")
	}
	cursor := -1
	evs := st.EventsSince(cursor)
	if len(evs) != 1 || evs[0].Kind != KindStart {
		t.Fatalf("EventsSince(-1) = %+v", evs)
	}
	cursor = evs[0].Seq
	// Two appends committing one event each while nobody reads: tokens
	// coalesce, EventsSince catches up in one read.
	st.Append(series[3:4]) // raw 1, run 1
	st.Append(series[4:5]) // raw 1, run 2 → change commits
	st.Append(series[5:6]) // raw 0, run 1
	st.Append(series[6:7]) // raw 0, run 2 → change commits
	select {
	case <-sub.Wait():
	default:
		t.Fatal("no coalesced wake-up")
	}
	evs = st.EventsSince(cursor)
	if len(evs) != 2 || evs[0].Kind != KindChange || evs[1].Kind != KindChange {
		t.Fatalf("catch-up read = %+v", evs)
	}
	r.Drain()
	if _, open := <-sub.Wait(); open {
		t.Fatal("Drain did not close the subscriber channel")
	}
	// Stream survives the drain: appends still work, new subscribers too.
	if _, err := st.Append(series[7:]); err != nil {
		t.Fatalf("append after drain: %v", err)
	}
	sub.Close() // idempotent after detach
	sub2, err := st.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	sub2.Close()
	if _, open := <-sub2.Wait(); open {
		t.Fatal("Sub.Close did not close the channel")
	}
}
