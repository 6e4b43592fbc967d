package archive

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"rpm"
	"rpm/internal/core"
	"rpm/internal/parallel"
)

// Source yields the datasets of one archive. Implementations must be
// safe for concurrent Load calls — Run fans datasets out over workers.
type Source interface {
	// Names lists every dataset the source can load, in any order; Run
	// sorts before sharding so the partition is stable.
	Names() ([]string, error)
	// Load returns one dataset's train/test split.
	Load(name string) (rpm.Split, error)
}

// SyntheticSource serves the repo's synthetic dataset suite
// (rpm.DatasetNames), generated deterministically from Seed.
type SyntheticSource struct {
	Seed int64
}

// Names lists the synthetic suite.
func (s SyntheticSource) Names() ([]string, error) {
	return rpm.DatasetNames(), nil
}

// Load generates one synthetic split from the source seed.
func (s SyntheticSource) Load(name string) (rpm.Split, error) {
	if !slices.Contains(rpm.DatasetNames(), name) {
		return rpm.Split{}, archErrf("Load", ErrBadConfig, "unknown synthetic dataset %q", name)
	}
	return rpm.GenerateDataset(name, s.Seed), nil
}

// DirSource serves UCR-layout datasets from a directory: every
// <name>_TRAIN with a matching <name>_TEST is one dataset.
type DirSource struct {
	Dir string
}

// Names lists the datasets found in the directory.
func (s DirSource) Names() ([]string, error) {
	const op = "Names"
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, archErr(op, ErrBadConfig, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_TRAIN") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), "_TRAIN")
		if _, err := os.Stat(filepath.Join(s.Dir, name+"_TEST")); err != nil {
			continue // half a split: skip rather than fail the archive
		}
		names = append(names, name)
	}
	return names, nil
}

// Load reads one dataset's UCR files.
func (s DirSource) Load(name string) (rpm.Split, error) {
	const op = "Load"
	train, err := s.readUCR(filepath.Join(s.Dir, name+"_TRAIN"))
	if err != nil {
		return rpm.Split{}, archErr(op, ErrBadConfig, err)
	}
	test, err := s.readUCR(filepath.Join(s.Dir, name+"_TEST"))
	if err != nil {
		return rpm.Split{}, archErr(op, ErrBadConfig, err)
	}
	return rpm.Split{Name: name, Train: train, Test: test}, nil
}

// readUCR loads one UCR-format file.
func (s DirSource) readUCR(path string) (rpm.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rpm.LoadUCR(f)
}

// Method is one classifier configuration Run trains and scores on
// every dataset.
type Method struct {
	// Name labels the method's rows; it must be unique within a run.
	Name string
	// Settings holds every value that can change the method's outcomes.
	// Run hashes its JSON encoding into the checkpoint fingerprint, so
	// values that change only wall-clock time (worker counts) stay out:
	// resuming at a different worker count is legal.
	Settings any
	// Train fits the method on a training split.
	Train func(ctx context.Context, train rpm.Dataset) (Model, error)
}

// Model is a trained method as Run scores it.
type Model struct {
	// Predict labels every series of a test split.
	Predict func(ctx context.Context, test rpm.Dataset) ([]int, error)
	// Patterns and Bags size the model for the table (0 when the
	// method has no patterns or members).
	Patterns, Bags int
	// TrainReport, when non-nil, is the training run's instrumentation;
	// the row keeps it as Report, and its worker-independent counters
	// (tableCounters) as Counters.
	TrainReport *rpm.TrainReport
}

// RPM returns the method, labelled name, that trains RPM with opts
// through the public API: one classifier, or a bagged ensemble when
// opts.Bags > 1. Training is
// always instrumented so the rows carry the report and its pipeline
// counters; Workers stays out of the fingerprint, and Instrument never
// serializes.
func RPM(name string, opts rpm.Options) Method {
	settings := opts
	settings.Workers = 0
	opts.Instrument = true
	return Method{Name: name, Settings: settings, Train: func(ctx context.Context, train rpm.Dataset) (Model, error) {
		if opts.Bags > 1 {
			e, err := rpm.TrainEnsembleContext(ctx, train, opts)
			if err != nil {
				return Model{}, err
			}
			return Model{Predict: e.PredictBatchContext, Patterns: e.NumPatterns(), Bags: e.Bags(), TrainReport: e.TrainReport()}, nil
		}
		c, err := rpm.TrainContext(ctx, train, opts)
		if err != nil {
			return Model{}, err
		}
		return Model{Predict: c.PredictBatchContext, Patterns: len(c.Patterns()), Bags: 1, TrainReport: c.TrainReport()}, nil
	}}
}

// Config configures one archive run.
type Config struct {
	// OutDir receives the per-dataset checkpoint files. Created if
	// missing.
	OutDir string
	// Source yields the datasets.
	Source Source
	// Datasets optionally restricts the run to these names (before
	// sharding).
	Datasets []string
	// Shard / Shards partition the sorted dataset list across
	// cooperating runs: this run takes every name whose index ≡ Shard
	// (mod Shards). Shards 0 means a single shard.
	Shard, Shards int
	// Seed is the seed the Source's data derives from; it is part of
	// the checkpoint fingerprint.
	Seed int64
	// Workers bounds the dataset-level fan-out (0 = GOMAXPROCS). Worker
	// count never changes any outcome, only wall-clock time.
	Workers int
	// Timeout bounds each dataset's train+evaluate wall time over all
	// methods; 0 means unbounded. A dataset that exceeds it records
	// status "timeout" rows and the run continues.
	Timeout time.Duration
	// Resume skips datasets with a valid checkpoint from an identical
	// configuration instead of retraining them.
	Resume bool
	// Strict turns per-dataset failures (and corrupt checkpoints) into
	// a Run error instead of error rows in the table.
	Strict bool
	// Methods are trained and scored on every dataset, in order; each
	// dataset yields one row per method.
	Methods []Method
	// Progress, when non-nil, receives one line per finished dataset
	// (serialized, in completion order).
	Progress func(string)
}

// Outcome is one (dataset, method) row: identity, status,
// correctness, cost, and the worker-independent pipeline counters.
// Wall times vary run to run; every other persisted field is a pure
// function of (config, dataset), which is what makes the deterministic
// table projection byte-comparable across runs.
type Outcome struct {
	Dataset string `json:"dataset"`
	Method  string `json:"method"`
	// Status is "ok", "error", or "timeout".
	Status string `json:"status"`
	// ErrKind is the taxonomy bucket of a failure ("bad_input",
	// "too_short", "timeout", ...), empty on success.
	ErrKind string `json:"errKind,omitempty"`
	ErrMsg  string `json:"errMsg,omitempty"`

	TrainSize int `json:"trainSize,omitempty"`
	TestSize  int `json:"testSize,omitempty"`
	Bags      int `json:"bags,omitempty"`
	Patterns  int `json:"patterns,omitempty"`
	// Accuracy is the fraction of test instances classified correctly.
	Accuracy float64 `json:"accuracy"`

	// TrainMillis and PredictMillis are wall times in (fractional)
	// milliseconds.
	TrainMillis   float64 `json:"trainMillis"`
	PredictMillis float64 `json:"predictMillis"`

	// Counters carries the worker-independent per-stage observability
	// counters (candidates, γ/τ pruning, CFS selection, sampling);
	// timing-dependent counters like the search cache's hit/miss split
	// are deliberately excluded.
	Counters map[string]int64 `json:"counters,omitempty"`

	// Resumed marks rows served from a checkpoint, and Report is the
	// method's training report (nil when it has none, or when resumed).
	// Both are in-memory only: they must not reach the checkpoint or
	// the deterministic table, where interrupted and uninterrupted runs
	// have to agree byte for byte.
	Resumed bool             `json:"-"`
	Report  *rpm.TrainReport `json:"-"`
}

// ErrorRate is the fraction of test instances misclassified,
// bit-identical to stats.ErrorRate over the row's predictions:
// Accuracy×TestSize recovers the exact correct count, and the rate is
// then computed with the same division.
func (o Outcome) ErrorRate() float64 {
	if o.TestSize == 0 {
		return 0
	}
	correct := int(math.Round(o.Accuracy * float64(o.TestSize)))
	return float64(o.TestSize-correct) / float64(o.TestSize)
}

// tableCounters is the allowlist of counters copied into each Outcome:
// all are pure functions of (config, dataset) — byte-identical at any
// worker count — unlike e.g. search.cache.hits/misses, whose split
// depends on evaluation interleaving.
var tableCounters = []string{
	core.CtrCandidates,
	core.CtrClustersKept,
	core.CtrClustersDropped,
	core.CtrPruneKept,
	core.CtrPruneDropped,
	core.CtrCFSSelected,
	core.CtrSampleWindowsKept,
	core.CtrSampleWindowsDropped,
	core.CtrSampleGridKept,
	core.CtrSampleGridDropped,
	core.CtrBagMembers,
}

// Result is one archive run's output: the configuration fingerprint
// and one Outcome per (dataset, method) of this shard, in sorted
// dataset order and method order within a dataset.
type Result struct {
	ConfigHash string    `json:"configHash"`
	Shard      int       `json:"shard"`
	Shards     int       `json:"shards"`
	Outcomes   []Outcome `json:"outcomes"`
	// Resumed counts rows served from checkpoints; excluded from the
	// deterministic projection (an uninterrupted run has 0).
	Resumed int `json:"resumed,omitempty"`
}

// Run executes the archive: it trains and evaluates every method on
// every dataset of the configured shard, checkpointing each dataset as
// it finishes, and returns the collected table. Per-dataset failures
// become error rows (strict mode excepted); Run itself fails only on
// bad configuration, an unusable source, or context cancellation.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	const op = "Run"
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	hash, err := cfg.hash()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, archErr(op, ErrBadConfig, err)
	}
	names, err := cfg.shardNames()
	if err != nil {
		return nil, err
	}
	// Dataset-level concurrency is safe because every outcome is a pure
	// function of (config, dataset) and checkpoints are per-dataset files.
	var progressMu sync.Mutex
	perDataset, canceled := parallel.Map(ctx, len(names), cfg.Workers, nil, func(i int) []Outcome {
		rows := cfg.runDataset(ctx, names[i], hash)
		if cfg.Progress != nil {
			progressMu.Lock()
			cfg.Progress(summarize(names[i], rows))
			progressMu.Unlock()
		}
		return rows
	})
	if canceled != nil {
		return nil, ctx.Err() // surface the context error unwrapped
	}
	res := &Result{ConfigHash: hash, Shard: cfg.Shard, Shards: max(1, cfg.Shards)}
	for _, rows := range perDataset {
		res.Outcomes = append(res.Outcomes, rows...)
	}
	for _, oc := range res.Outcomes {
		if oc.Resumed {
			res.Resumed++
		}
		if cfg.Strict && oc.Status != "ok" {
			return nil, archErrf(op, ErrRunFailed, "dataset %s, method %s: %s: %s", oc.Dataset, oc.Method, oc.Status, oc.ErrMsg)
		}
	}
	return res, nil
}

// summarize is the progress line of one finished dataset.
func summarize(name string, rows []Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "done %-18s", name)
	for _, oc := range rows {
		if oc.Status == "ok" {
			fmt.Fprintf(&b, " %s=%.3f", oc.Method, oc.ErrorRate())
		} else {
			fmt.Fprintf(&b, " %s=%s", oc.Method, oc.Status)
		}
	}
	return b.String()
}

// validate rejects unusable configurations up front.
func (cfg Config) validate() error {
	const op = "Run"
	if cfg.OutDir == "" {
		return archErrf(op, ErrBadConfig, "OutDir is required")
	}
	if cfg.Source == nil {
		return archErrf(op, ErrBadConfig, "Source is required")
	}
	if cfg.Shards < 0 || cfg.Shard < 0 {
		return archErrf(op, ErrBadConfig, "negative shard index %d/%d", cfg.Shard, cfg.Shards)
	}
	if cfg.Shards > 0 && cfg.Shard >= cfg.Shards {
		return archErrf(op, ErrBadConfig, "shard %d out of range for %d shards", cfg.Shard, cfg.Shards)
	}
	if cfg.Timeout < 0 {
		return archErrf(op, ErrBadConfig, "negative timeout %v", cfg.Timeout)
	}
	if len(cfg.Methods) == 0 {
		return archErrf(op, ErrBadConfig, "Methods is required")
	}
	seen := map[string]bool{}
	for _, m := range cfg.Methods {
		if m.Name == "" || m.Train == nil || seen[m.Name] {
			return archErrf(op, ErrBadConfig, "method %q: need a unique name and a Train function", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// shardNames resolves, filters, sorts, and shards the dataset list.
// Sorting before sharding makes the partition a pure function of
// (name set, Shard, Shards), independent of source enumeration order.
func (cfg Config) shardNames() ([]string, error) {
	const op = "Run"
	names, err := cfg.Source.Names()
	if err != nil {
		return nil, wrapSourceErr(op, err)
	}
	if len(cfg.Datasets) > 0 {
		have := map[string]bool{}
		for _, n := range names {
			have[n] = true
		}
		names = names[:0:0]
		for _, n := range cfg.Datasets {
			if !have[n] {
				return nil, archErrf(op, ErrBadConfig, "dataset %q not served by the source", n)
			}
			names = append(names, n)
		}
	}
	for _, n := range names {
		if n == "" || n == "." || n == ".." || strings.ContainsAny(n, `/\`) {
			return nil, archErrf(op, ErrBadConfig, "dataset name %q is not filesystem-safe", n)
		}
	}
	sort.Strings(names)
	if cfg.Shards > 1 {
		sharded := names[:0:0]
		for i, n := range names {
			if i%cfg.Shards == cfg.Shard {
				sharded = append(sharded, n)
			}
		}
		names = sharded
	}
	return names, nil
}

// wrapSourceErr passes already-typed source errors through and wraps
// foreign ones.
func wrapSourceErr(op string, err error) error {
	var ae *Error
	if errors.As(err, &ae) {
		return err
	}
	return archErr(op, ErrBadConfig, err)
}

// hash fingerprints every result-affecting knob: the run seed and each
// method's name and settings. Two runs with equal hashes produce
// interchangeable checkpoints. Settings that do not encode as JSON
// (NaN or ±Inf floats, funcs, channels) are a configuration error.
func (cfg Config) hash() (string, error) {
	type method struct {
		Name     string `json:"name"`
		Settings any    `json:"settings"`
	}
	key := struct {
		Version int      `json:"version"`
		Seed    int64    `json:"seed"`
		Methods []method `json:"methods"`
	}{Version: checkpointVersion, Seed: cfg.Seed}
	for _, m := range cfg.Methods {
		key.Methods = append(key.Methods, method{m.Name, m.Settings})
	}
	blob, err := json.Marshal(key)
	if err != nil {
		return "", archErrf("Run", ErrBadConfig, "method settings do not encode: %v", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16]), nil
}

// runDataset produces one dataset's rows, serving them from a valid
// checkpoint when resuming and checkpointing them after computing. A
// corrupt or mismatched checkpoint is recomputed and overwritten
// (strict mode instead reports it as error rows).
func (cfg Config) runDataset(ctx context.Context, name, hash string) []Outcome {
	if cfg.Resume {
		rows, err := readCheckpoint(cfg.OutDir, name, hash, cfg.Methods)
		switch {
		case err == nil:
			for i := range rows {
				rows[i].Resumed = true
			}
			return rows
		case errors.Is(err, fs.ErrNotExist):
			// No checkpoint yet: compute below.
		case cfg.Strict:
			return cfg.failAll(name, err)
		}
	}
	rows := cfg.evaluate(ctx, name)
	if ctx.Err() != nil {
		// Run is being canceled: don't persist rows that reflect an
		// aborted training as if they were the dataset's true outcome.
		return rows
	}
	if err := writeCheckpoint(cfg.OutDir, hash, name, rows); err != nil {
		for i := range rows {
			rows[i].Status, rows[i].ErrKind, rows[i].ErrMsg = "error", "io", err.Error()
		}
	}
	return rows
}

// failAll returns one failed row per method of dataset name.
func (cfg Config) failAll(name string, err error) []Outcome {
	rows := make([]Outcome, len(cfg.Methods))
	for i, m := range cfg.Methods {
		rows[i] = failed(Outcome{Dataset: name, Method: m.Name}, err)
	}
	return rows
}

// evaluate loads one dataset and runs every method on it in order, so
// the methods' times are measured back to back.
func (cfg Config) evaluate(ctx context.Context, name string) []Outcome {
	split, err := cfg.Source.Load(name)
	if err != nil {
		return cfg.failAll(name, err)
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	rows := make([]Outcome, len(cfg.Methods))
	for i, m := range cfg.Methods {
		rows[i] = trainEval(ctx, Outcome{Dataset: name, Method: m.Name}, split, m)
	}
	return rows
}

// trainEval trains one method on a split, predicts the test split and
// scores the predictions, timing the two phases.
func trainEval(ctx context.Context, oc Outcome, split rpm.Split, m Method) Outcome {
	oc.Status = "ok"
	oc.TrainSize, oc.TestSize = len(split.Train), len(split.Test)
	t0 := time.Now()
	model, err := m.Train(ctx, split.Train)
	trainTime := time.Since(t0)
	if err != nil {
		return failed(oc, err)
	}
	t1 := time.Now()
	preds, err := model.Predict(ctx, split.Test)
	predictTime := time.Since(t1)
	if err != nil {
		return failed(oc, err)
	}
	oc.Bags, oc.Patterns, oc.Report = model.Bags, model.Patterns, model.TrainReport
	oc.TrainMillis = float64(trainTime) / float64(time.Millisecond)
	oc.PredictMillis = float64(predictTime) / float64(time.Millisecond)
	correct := 0
	for i, p := range preds {
		if p == split.Test[i].Label {
			correct++
		}
	}
	if len(preds) > 0 {
		oc.Accuracy = float64(correct) / float64(len(preds))
	}
	for _, name := range tableCounters {
		if v := model.TrainReport.Counter(name); v != 0 {
			if oc.Counters == nil {
				oc.Counters = map[string]int64{}
			}
			oc.Counters[name] = v
		}
	}
	return oc
}

// failed fills the error fields of an outcome.
func failed(oc Outcome, err error) Outcome {
	oc.Status = "error"
	oc.ErrKind = kindOf(err)
	if oc.ErrKind == "timeout" {
		oc.Status = "timeout"
	}
	oc.ErrMsg = err.Error()
	return oc
}

// kindOf buckets an error into the table's taxonomy column.
func kindOf(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, rpm.ErrBadInput):
		return "bad_input"
	case errors.Is(err, rpm.ErrTooShort):
		return "too_short"
	case errors.Is(err, rpm.ErrCorruptModel):
		return "corrupt_model"
	case errors.Is(err, rpm.ErrInternal):
		return "internal"
	case errors.Is(err, ErrCheckpointCorrupt):
		return "checkpoint_corrupt"
	case errors.Is(err, ErrCheckpointMismatch):
		return "checkpoint_mismatch"
	default:
		return "io"
	}
}

// Deterministic returns a copy of the result with every field that
// legitimately varies between runs of the same configuration — wall
// times and the resumed count — stripped, leaving exactly the fields
// that must agree byte for byte between an interrupted-and-resumed run
// and an uninterrupted one. The archive-smoke CI gate diffs this
// projection.
func (r *Result) Deterministic() *Result {
	out := *r
	out.Resumed = 0
	out.Outcomes = make([]Outcome, len(r.Outcomes))
	for i, oc := range r.Outcomes {
		oc.TrainMillis = 0
		oc.PredictMillis = 0
		oc.Resumed = false
		out.Outcomes[i] = oc
	}
	return &out
}

// JSON serializes the result (indented, trailing newline).
func (r *Result) JSON() ([]byte, error) {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, archErr("JSON", ErrRunFailed, err)
	}
	return append(blob, '\n'), nil
}

// WriteTable renders the human-readable table. When deterministic is
// true the time columns render as "-" (the Deterministic projection).
func (r *Result) WriteTable(w io.Writer, deterministic bool) error {
	const op = "WriteTable"
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "DATASET\tMETHOD\tSTATUS\tBAGS\tPATTERNS\tACC\tTRAIN_MS\tPREDICT_MS\tCANDIDATES\tNOTE")
	for _, oc := range r.Outcomes {
		trainMS, predictMS := "-", "-"
		if !deterministic {
			trainMS = fmt.Sprintf("%.0f", oc.TrainMillis)
			predictMS = fmt.Sprintf("%.0f", oc.PredictMillis)
		}
		note := oc.ErrKind
		if oc.Resumed && !deterministic {
			note = "resumed"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.4f\t%s\t%s\t%d\t%s\n",
			oc.Dataset, oc.Method, oc.Status, oc.Bags, oc.Patterns, oc.Accuracy,
			trainMS, predictMS, oc.Counters[core.CtrCandidates], note)
	}
	if err := tw.Flush(); err != nil {
		return archErr(op, ErrRunFailed, err)
	}
	return nil
}
