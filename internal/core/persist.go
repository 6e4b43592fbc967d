package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"rpm/internal/sax"
	"rpm/internal/svm"
	"rpm/internal/ts"
)

// persistVersion guards the on-disk format.
const persistVersion = 1

// ErrCorrupt marks every failure of Load's snapshot validation: a model
// file that decoded but is internally inconsistent (wrong version,
// out-of-range SAX parameters, non-finite pattern values, SVM dimensions
// that disagree with the pattern count, an empty fallback). Callers test
// for it with errors.Is; the public rpm façade maps it to
// rpm.ErrCorruptModel.
var ErrCorrupt = errors.New("corrupt classifier snapshot")

// snapshot is the JSON shape of a saved classifier.
type snapshot struct {
	Version        int                `json:"version"`
	Patterns       []Pattern          `json:"patterns"`
	PerClassParams map[int]sax.Params `json:"perClassParams"`
	Options        Options            `json:"options"`
	SVM            *svm.Snapshot      `json:"svm,omitempty"`
	// Fallback is stored only for degenerate models with no patterns,
	// which classify by 1NN on the raw training set.
	Fallback ts.Dataset `json:"fallback,omitempty"`
}

// Save serializes the trained classifier as JSON. The format is versioned;
// Load rejects unknown versions.
func (c *Classifier) Save(w io.Writer) error {
	s := snapshot{
		Version:        persistVersion,
		Patterns:       c.Patterns,
		PerClassParams: c.PerClassParams,
		Options:        c.opts,
	}
	if c.model != nil {
		snap := c.model.Snapshot()
		s.SVM = &snap
	}
	if len(c.Patterns) == 0 {
		s.Fallback = c.fallback
	}
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// corrupt builds a Load validation error carrying the ErrCorrupt marker.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Load deserializes a classifier previously written by Save. The decoded
// snapshot is fully validated — version, per-class SAX parameters within
// sax bounds, pattern values non-empty and finite, SVM weight/feature
// dimensions consistent with the pattern count, fallback instances
// non-empty and finite — before any predict-path state (the transformer)
// is built, so a corrupt or adversarial model file fails here with an
// error matching ErrCorrupt instead of panicking at predict time.
func Load(r io.Reader) (*Classifier, error) {
	var s snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding classifier: %w: %w", ErrCorrupt, err)
	}
	if err := validateSnapshot(&s); err != nil {
		return nil, err
	}
	var model *svm.Model
	if len(s.Patterns) > 0 {
		m, err := svm.FromSnapshot(*s.SVM)
		if err != nil {
			return nil, fmt.Errorf("core: %w: %w", ErrCorrupt, err)
		}
		model = m
	}
	// Safe to build only now: every pattern has been validated
	// non-empty and finite.
	return newClassifier(s.Patterns, s.PerClassParams, s.Options, model, s.Fallback, nil), nil
}

// validateSnapshot checks every structural invariant a trained classifier
// guarantees, so the rest of the package may assume them.
func validateSnapshot(s *snapshot) error {
	if s.Version != persistVersion {
		return corrupt("unsupported classifier version %d (want %d)", s.Version, persistVersion)
	}
	// Per-class SAX parameters must be inside the sax package's bounds:
	// they are reported to users and re-used by tooling, and out-of-range
	// values (e.g. Alphabet: 99) would panic inside sax on first use.
	// Iterate classes in sorted order so the same corrupt snapshot
	// always yields the same first error (detmap invariant).
	classes := make([]int, 0, len(s.PerClassParams))
	for class := range s.PerClassParams {
		classes = append(classes, class)
	}
	sort.Ints(classes)
	for _, class := range classes {
		p := s.PerClassParams[class]
		if err := p.Validate(0); err != nil {
			return corrupt("class %d SAX params %v: %v", class, p, err)
		}
	}
	for i, p := range s.Patterns {
		if len(p.Values) == 0 {
			return corrupt("pattern %d has no values", i)
		}
		for j, v := range p.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return corrupt("pattern %d value %d is not finite", i, j)
			}
		}
		if p.Support < 0 || p.Freq < 0 {
			return corrupt("pattern %d has negative support/frequency", i)
		}
	}
	if len(s.Patterns) > 0 {
		if s.SVM == nil {
			return corrupt("classifier has patterns but no SVM state")
		}
		// The SVM consumes the len(Patterns)-dimensional transform
		// vector; a dimension mismatch would panic on the first Predict.
		if len(s.SVM.Mean) != len(s.Patterns) {
			return corrupt("SVM expects %d features but classifier has %d patterns", len(s.SVM.Mean), len(s.Patterns))
		}
		if len(s.SVM.Scale) != len(s.SVM.Mean) {
			return corrupt("SVM scaler mean/scale length mismatch %d != %d", len(s.SVM.Mean), len(s.SVM.Scale))
		}
		for k, w := range s.SVM.Weights {
			for j, v := range w {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return corrupt("SVM weight [%d][%d] is not finite", k, j)
				}
			}
		}
		for j := range s.SVM.Mean {
			if math.IsNaN(s.SVM.Mean[j]) || math.IsInf(s.SVM.Mean[j], 0) ||
				math.IsNaN(s.SVM.Scale[j]) || math.IsInf(s.SVM.Scale[j], 0) {
				return corrupt("SVM scaler entry %d is not finite", j)
			}
		}
		return nil
	}
	// Degenerate model: must carry a usable 1NN fallback.
	if len(s.Fallback) == 0 {
		return corrupt("classifier has neither patterns nor fallback data")
	}
	for i, in := range s.Fallback {
		if len(in.Values) == 0 {
			return corrupt("fallback instance %d has no values", i)
		}
		for j, v := range in.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return corrupt("fallback instance %d value %d is not finite", i, j)
			}
		}
	}
	return nil
}
