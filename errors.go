package rpm

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rpm/internal/core"
)

// Sentinel errors. Every error returned by the public API wraps exactly
// one of these (or a context error), so callers can dispatch with
// errors.Is without parsing messages:
//
//	clf, err := rpm.Train(train, opts)
//	switch {
//	case errors.Is(err, rpm.ErrBadInput):     // reject the request
//	case errors.Is(err, rpm.ErrTooShort):     // series below minimum length
//	case errors.Is(err, context.Canceled):    // caller aborted
//	case errors.Is(err, rpm.ErrInternal):     // contained panic: report a bug
//	}
var (
	// ErrBadInput marks requests rejected by boundary validation:
	// empty or single-class training sets, NaN/Inf values, ragged UCR
	// files, SAX parameters outside their bounds.
	ErrBadInput = errors.New("bad input")
	// ErrTooShort marks series (or whole datasets) below the minimum
	// usable length — an empty query, a training series with fewer than
	// MinSeriesLen points.
	ErrTooShort = errors.New("series too short")
	// ErrCorruptModel marks classifier snapshots that fail to decode or
	// fail Load's structural validation (version, SAX bounds, SVM
	// dimensions, non-finite values).
	ErrCorruptModel = errors.New("corrupt model")
	// ErrInternal marks a contained internal panic: the recover shim at
	// the API boundary converted it into an error instead of crashing
	// the process. Seeing it means an invariant was violated — please
	// report it — but the embedding server keeps running.
	ErrInternal = errors.New("internal error")
)

// MinSeriesLen is the minimum number of points a training series must
// have: the SAX sliding window needs at least two points to normalize.
const MinSeriesLen = 2

// Error is the typed error of the public API. It records the failing
// operation, the sentinel category (ErrBadInput, ErrTooShort,
// ErrCorruptModel, ErrInternal), and the underlying cause. errors.Is
// matches both the sentinel and the wrapped cause chain.
type Error struct {
	// Op is the public entry point that failed, e.g. "Train".
	Op string
	// Kind is the sentinel category the error belongs to.
	Kind error
	// Err is the underlying cause; may be nil when Kind plus the
	// message carries everything.
	Err error
}

func (e *Error) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("rpm: %s: %v", e.Op, e.Kind)
	}
	return fmt.Sprintf("rpm: %s: %v: %v", e.Op, e.Kind, e.Err)
}

// Unwrap exposes both the sentinel and the cause to errors.Is/As.
func (e *Error) Unwrap() []error {
	if e.Err == nil {
		return []error{e.Kind}
	}
	return []error{e.Kind, e.Err}
}

// apiErr builds a typed *Error.
func apiErr(op string, kind error, err error) *Error {
	return &Error{Op: op, Kind: kind, Err: err}
}

// apiErrf builds a typed *Error from a formatted message.
func apiErrf(op string, kind error, format string, args ...any) *Error {
	return &Error{Op: op, Kind: kind, Err: fmt.Errorf(format, args...)}
}

// guard is the single recover shim of the public API: it runs fn and
// converts any panic escaping the internal layers into a typed *Error
// wrapping ErrInternal, so no input — however hostile — can crash a
// server embedding the library. Errors returned by fn pass through
// untouched (they are already typed or are context errors).
func guard(op string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = apiErrf(op, ErrInternal, "recovered panic: %v", r)
		}
	}()
	return fn()
}

// wrapCoreErr classifies an error escaping internal/core: context errors
// pass through unwrapped (so errors.Is(err, context.Canceled) works),
// snapshot-validation failures become ErrCorruptModel, everything else
// ErrBadInput.
func wrapCoreErr(op string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if errors.Is(err, core.ErrCorrupt) {
		return apiErr(op, ErrCorruptModel, err)
	}
	return apiErr(op, ErrBadInput, err)
}

// errKind extracts the sentinel category of a typed *Error (ErrInternal
// for anything else).
func errKind(err error) error {
	var e *Error
	if errors.As(err, &e) {
		return e.Kind
	}
	return ErrInternal
}

// errCause extracts the underlying cause of a typed *Error (the error
// itself for anything else).
func errCause(err error) error {
	var e *Error
	if errors.As(err, &e) && e.Err != nil {
		return e.Err
	}
	return err
}

// ValidateSeries checks one query series against the same boundary rules
// PredictBatchContext enforces: a series with fewer than one point
// returns a typed *Error matching ErrTooShort, NaN/Inf values one
// matching ErrBadInput, and a valid series returns nil. It is the check
// a request boundary (e.g. the rpmserved inference server) runs before
// calling the total Predict, so degenerate input is rejected with a
// typed error instead of classified.
func ValidateSeries(values []float64) error {
	return validateSeries("ValidateSeries", values, 1)
}

// validateSeries rejects an empty, too-short, or non-finite query.
func validateSeries(op string, values []float64, minLen int) error {
	if len(values) < minLen {
		return apiErrf(op, ErrTooShort, "series has %d points, need at least %d", len(values), minLen)
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return apiErrf(op, ErrBadInput, "series value %d is not finite", i)
		}
	}
	return nil
}

// validateTrainingSet checks a training dataset at the API boundary:
// non-empty, every series at least minLen points and finite, and (when
// requireTwoClasses) at least two distinct labels — a single-class set
// has nothing to discriminate and would silently degenerate to 1NN.
func validateTrainingSet(op string, d Dataset, minLen int, requireTwoClasses bool) error {
	if len(d) == 0 {
		return apiErrf(op, ErrBadInput, "empty training set")
	}
	for i, in := range d {
		if len(in.Values) < minLen {
			return apiErrf(op, ErrTooShort, "training instance %d has %d points, need at least %d", i, len(in.Values), minLen)
		}
		for j, v := range in.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return apiErrf(op, ErrBadInput, "training instance %d value %d is not finite", i, j)
			}
		}
	}
	if requireTwoClasses {
		first := d[0].Label
		multi := false
		for _, in := range d[1:] {
			if in.Label != first {
				multi = true
				break
			}
		}
		if !multi {
			return apiErrf(op, ErrBadInput, "training set has a single class (%d); need at least two", first)
		}
	}
	return nil
}
