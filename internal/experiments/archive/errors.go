// Package archive is the repo's one evaluation runner, behind
// cmd/rpmarchive and every cmd/benchtab experiment (DESIGN.md §15): it
// trains, predicts and scores a list of methods on every dataset of a
// source, checkpointing each finished dataset to an atomic,
// byte-verified file so a killed run resumes exactly where it stopped,
// and emits a correctness+efficiency table with one row per (dataset,
// method) whose deterministic projection is byte-identical between an
// interrupted-and-resumed run and an uninterrupted one.
package archive

import (
	"errors"
	"fmt"
)

// Sentinel errors. Every error returned by the package's exported
// functions wraps exactly one of these (or an unwrapped context error),
// the same taxonomy discipline the rpmlint errtaxonomy analyzer
// enforces for package rpm.
var (
	// ErrBadConfig marks Run configurations rejected up front: missing
	// output directory, source or methods, an out-of-range shard index,
	// a dataset name that is not filesystem-safe, method settings that
	// do not encode (NaN or ±Inf).
	ErrBadConfig = errors.New("bad archive config")
	// ErrCheckpointCorrupt marks checkpoint files that fail structural
	// or byte verification: undecodable JSON, an unknown version, or a
	// payload whose SHA-256 disagrees with the recorded digest.
	ErrCheckpointCorrupt = errors.New("corrupt checkpoint")
	// ErrCheckpointMismatch marks a structurally valid checkpoint written by
	// a run with different result-affecting configuration; resuming over
	// it would splice incomparable rows into one table.
	ErrCheckpointMismatch = errors.New("checkpoint config mismatch")
	// ErrRunFailed marks dataset failures surfaced in strict mode (by
	// default per-dataset failures are captured in their Outcome rows
	// and Run itself succeeds).
	ErrRunFailed = errors.New("archive run failed")
)

// Error is the typed error of the package. It records the failing
// operation, the sentinel category, and the underlying cause;
// errors.Is matches both.
type Error struct {
	// Op is the operation that failed, e.g. "Run" or "ReadCheckpoint".
	Op string
	// Kind is the sentinel category the error belongs to.
	Kind error
	// Err is the underlying cause; may be nil when Kind plus the message
	// carries everything.
	Err error
}

func (e *Error) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("archive: %s: %v", e.Op, e.Kind)
	}
	return fmt.Sprintf("archive: %s: %v: %v", e.Op, e.Kind, e.Err)
}

// Unwrap exposes both the sentinel and the cause to errors.Is/As.
func (e *Error) Unwrap() []error {
	if e.Err == nil {
		return []error{e.Kind}
	}
	return []error{e.Kind, e.Err}
}

// archErr builds a typed *Error.
func archErr(op string, kind error, err error) *Error {
	return &Error{Op: op, Kind: kind, Err: err}
}

// archErrf builds a typed *Error from a formatted message.
func archErrf(op string, kind error, format string, args ...any) *Error {
	return &Error{Op: op, Kind: kind, Err: fmt.Errorf(format, args...)}
}
