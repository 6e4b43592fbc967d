// Package serve is the model-serving subsystem behind
// cmd/rpmserved: a stdlib-only HTTP inference layer that loads saved rpm
// classifier snapshots into a versioned, atomically hot-reloadable model
// store and serves single predictions under a bounded admission and
// batch predictions fanned out over a worker bound (see DESIGN.md §10).
//
// The package composes the three substrates the earlier layers built:
// the worker pool bounds per-batch predict fan-out (rpm.SetWorkers), the
// typed error taxonomy maps onto HTTP statuses (rpm.ErrBadInput → 400,
// rpm.ErrTooShort → 422, rpm.ErrCorruptModel → 503, rpm.ErrInternal →
// 500), and every request is accounted in an obs.Registry (counters,
// latency summaries, predict-pool usage) exposed over /debug/obs.
package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpm"
	"rpm/internal/faults"
	"rpm/internal/obs"
	"rpm/internal/stream"
)

// Model is one loaded classifier snapshot, immutable once published.
// Version counts successful content changes of the model's file: it
// starts at 1 on first load and bumps only when a reload sees different
// bytes (an unchanged file keeps the same *Model, so in-flight requests
// and the version number are stable across no-op reloads).
type Model struct {
	// Name is the snapshot file's base name without extension; request
	// payloads select models by it.
	Name string
	// Version is the content generation of this model (1-based).
	Version int
	// Path is the snapshot file the model was loaded from.
	Path string
	// LoadedAt is when this content version was loaded.
	LoadedAt time.Time
	// NumPatterns is the dimensionality of the model's transform space.
	NumPatterns int
	// Classes are the model's class labels, sorted.
	Classes []int

	clf *rpm.Classifier
	sum [sha256.Size]byte

	// Streaming state is derived lazily, once per content version: the
	// first stream created against this model builds the shared immutable
	// stream.Model (matchers grouped by pattern length); every later
	// stream reuses it. Models that cannot stream (pattern-free 1NN
	// fallback, rotation-invariant transform) cache the typed error.
	streamOnce  sync.Once
	streamModel *stream.Model
	streamErr   error
}

// StreamModel returns the shared streaming state for this model
// version, building it on first use. The error (an rpm.ErrBadInput for
// models that cannot stream) is stable across calls.
func (m *Model) StreamModel() (*stream.Model, error) {
	m.streamOnce.Do(func() {
		if err := m.clf.ValidateStreamingFeatures(m.clf.NumPatterns()); err != nil {
			m.streamErr = err
			return
		}
		pats := m.clf.Patterns()
		raw := make([][]float64, len(pats))
		for i, p := range pats {
			raw[i] = p.Values
		}
		m.streamModel, m.streamErr = stream.NewModel(raw, m.clf)
	})
	return m.streamModel, m.streamErr
}

// catalog is the immutable set of models the store publishes with one
// atomic pointer swap. defaultName is non-empty iff exactly one model is
// loaded, letting single-model deployments omit the "model" field.
type catalog struct {
	models      map[string]*Model
	names       []string // sorted
	defaultName string
}

// ReloadOutcome describes one file's fate during a reload pass.
type ReloadOutcome struct {
	Name string `json:"name"`
	File string `json:"file"`
	// Err is the load failure, empty on success.
	Err string `json:"err,omitempty"`
}

// ReloadReport summarizes one reload pass over the model directory.
// Corrupt snapshots never evict a serving model: a file that fails
// rpm.LoadClassifier keeps its previous version serving (KeptOld) or,
// if it never loaded, is skipped (Rejected).
type ReloadReport struct {
	// Loaded are models whose content changed and loaded cleanly.
	Loaded []ReloadOutcome `json:"loaded,omitempty"`
	// Unchanged are models whose file bytes were identical; the existing
	// *Model (and its version) keeps serving.
	Unchanged []ReloadOutcome `json:"unchanged,omitempty"`
	// KeptOld are corrupt files whose previous version keeps serving.
	KeptOld []ReloadOutcome `json:"keptOld,omitempty"`
	// Rejected are corrupt files with no previous version to fall back to.
	Rejected []ReloadOutcome `json:"rejected,omitempty"`
	// Removed are models whose file disappeared from the directory.
	Removed []ReloadOutcome `json:"removed,omitempty"`
	// Models is the number of models serving after the pass.
	Models int `json:"models"`
}

// Store is the versioned model registry: an atomic.Pointer catalog that
// readers dereference once per request (no locks on the serve path) and
// that Reload swaps wholesale after building the next catalog off to the
// side. Reloads are serialized by a mutex; readers never block.
type Store struct {
	dir     string
	workers int
	faults  *faults.Injector

	reloads     *obs.Counter
	rejected    *obs.Counter
	injected    *obs.Counter
	gaugeModels *obs.Gauge

	mu  sync.Mutex // serializes Reload
	cur atomic.Pointer[catalog]
}

// NewStore creates a store over a directory of *.json snapshots written
// by rpm's Classifier.Save (e.g. rpmcli -save). workers is the predict
// fan-out bound applied to every loaded classifier (rpm.SetWorkers).
// inj, usually nil, injects deterministic model-load failures during
// Reload (DESIGN.md §13). The store starts empty; call Reload to
// populate it.
func NewStore(dir string, workers int, reg *obs.Registry, inj *faults.Injector) *Store {
	s := &Store{
		dir:         dir,
		workers:     workers,
		faults:      inj,
		reloads:     reg.Counter(CtrReloads),
		rejected:    reg.Counter(CtrReloadRejected),
		injected:    reg.Counter(CtrFaultsInjected),
		gaugeModels: reg.Gauge(GaugeModels),
	}
	s.cur.Store(&catalog{models: map[string]*Model{}})
	return s
}

// Len returns the number of models currently serving.
func (s *Store) Len() int { return len(s.cur.Load().models) }

// Models returns the serving models sorted by name.
func (s *Store) Models() []*Model {
	c := s.cur.Load()
	out := make([]*Model, 0, len(c.names))
	for _, n := range c.names {
		out = append(out, c.models[n])
	}
	return out
}

// Get resolves a model by name. An empty name selects the default model,
// which exists only when exactly one model is loaded. The returned
// *Model stays valid (and keeps predicting) even if a reload swaps the
// catalog mid-request.
func (s *Store) Get(name string) (*Model, error) {
	c := s.cur.Load()
	if len(c.models) == 0 {
		return nil, errNoModels
	}
	if name == "" {
		if c.defaultName == "" {
			return nil, fmt.Errorf("%w: %d models loaded (%s); request must name one",
				errAmbiguousModel, len(c.names), strings.Join(c.names, ", "))
		}
		name = c.defaultName
	}
	m, ok := c.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have: %s)", errUnknownModel, name, strings.Join(c.names, ", "))
	}
	return m, nil
}

// Reload scans the model directory and atomically publishes the next
// catalog. It returns an error only when the directory itself is
// unreadable; per-file failures are reported in the ReloadReport and
// never evict a model that is already serving (the old version keeps
// answering until a clean replacement appears).
func (s *Store) Reload() (ReloadReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return ReloadReport{Models: s.Len()}, fmt.Errorf("serve: reading model dir: %w", err)
	}
	old := s.cur.Load()
	next := &catalog{models: make(map[string]*Model, len(entries))}
	var rep ReloadReport
	seen := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		path := filepath.Join(s.dir, e.Name())
		seen[name] = true
		out := ReloadOutcome{Name: name, File: e.Name()}
		data, err := os.ReadFile(path)
		if err == nil {
			// Injected model-load I/O failure (faults.SiteStoreLoad):
			// indistinguishable from a real read error, so the KeptOld /
			// Rejected fallback below is exactly what a chaos run proves.
			if ferr := s.faults.Err(faults.SiteStoreLoad); ferr != nil {
				s.injected.Inc()
				err = ferr
			}
		}
		if err != nil {
			out.Err = err.Error()
			if prev, ok := old.models[name]; ok {
				next.models[name] = prev
				rep.KeptOld = append(rep.KeptOld, out)
			} else {
				rep.Rejected = append(rep.Rejected, out)
			}
			s.rejected.Inc()
			continue
		}
		sum := sha256.Sum256(data)
		if prev, ok := old.models[name]; ok && prev.sum == sum {
			next.models[name] = prev
			rep.Unchanged = append(rep.Unchanged, out)
			continue
		}
		clf, err := rpm.LoadClassifier(bytes.NewReader(data))
		if err != nil {
			// Corrupt snapshot: rpm.ErrCorruptModel (or read junk). The
			// previously serving version, if any, keeps serving.
			out.Err = err.Error()
			if prev, ok := old.models[name]; ok {
				next.models[name] = prev
				rep.KeptOld = append(rep.KeptOld, out)
			} else {
				rep.Rejected = append(rep.Rejected, out)
			}
			s.rejected.Inc()
			continue
		}
		clf.SetWorkers(s.workers)
		version := 1
		if prev, ok := old.models[name]; ok {
			version = prev.Version + 1
		}
		next.models[name] = &Model{
			Name:        name,
			Version:     version,
			Path:        path,
			LoadedAt:    time.Now(),
			NumPatterns: clf.NumPatterns(),
			Classes:     classesOf(clf),
			clf:         clf,
			sum:         sum,
		}
		rep.Loaded = append(rep.Loaded, out)
	}
	for name, prev := range old.models {
		if !seen[name] {
			rep.Removed = append(rep.Removed, ReloadOutcome{Name: name, File: filepath.Base(prev.Path)})
		}
	}
	for n := range next.models {
		next.names = append(next.names, n)
	}
	sort.Strings(next.names)
	if len(next.names) == 1 {
		next.defaultName = next.names[0]
	}
	s.cur.Store(next)
	s.reloads.Inc()
	s.gaugeModels.Set(int64(len(next.names)))
	rep.Models = len(next.names)
	return rep, nil
}

// classesOf lists a classifier's class labels, sorted. Degenerate
// (pattern-free) models report no classes.
func classesOf(clf *rpm.Classifier) []int {
	params := clf.PerClassParams()
	out := make([]int, 0, len(params))
	for c := range params {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
