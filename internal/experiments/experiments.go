// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§6) on the synthetic dataset suite: Table 1
// (classification error of six methods), Table 2 (running time of LS, FS
// and RPM), Table 3 / Figure 9 (sensitivity to the similarity threshold
// τ), Table 4 (error on rotated test data), Figures 7 and 8 (pairwise
// comparison scatters with Wilcoxon p-values), and the §6.2 medical-alarm
// case study. cmd/benchtab is the command-line front end; bench_test.go
// exposes the same runs as testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"rpm/internal/core"
	"rpm/internal/datagen"
	"rpm/internal/dataset"
	"rpm/internal/fastshapelets"
	"rpm/internal/learnshapelets"
	"rpm/internal/nn"
	"rpm/internal/obs"
	"rpm/internal/parallel"
	"rpm/internal/saxvsm"
	"rpm/internal/stats"
	"rpm/internal/ts"
)

// Method names, in the paper's column order.
const (
	MethodNNED   = "NN-ED"
	MethodNNDTWB = "NN-DTWB"
	MethodSAXVSM = "SAX-VSM"
	MethodFS     = "FS"
	MethodLS     = "LS"
	MethodRPM    = "RPM"
)

// AllMethods is the paper's Table 1 column order.
func AllMethods() []string {
	return []string{MethodNNED, MethodNNDTWB, MethodSAXVSM, MethodFS, MethodLS, MethodRPM}
}

// predictor is the minimal classifier interface the harness drives.
type predictor interface {
	Predict(values []float64) int
}

// MethodResult is one classifier's outcome on one dataset.
type MethodResult struct {
	Err          float64
	TrainTime    time.Duration
	ClassifyTime time.Duration
}

// Total returns train + classify time.
func (r MethodResult) Total() time.Duration { return r.TrainTime + r.ClassifyTime }

// DatasetResult bundles every method's result on one dataset. Report is
// non-nil only under Config.Instrument: a snapshot of the dataset's obs
// registry, carrying the RPM training stage spans and counters plus the
// NN-DTWB leave-one-out sweep spans.
type DatasetResult struct {
	Name    string
	Results map[string]MethodResult
	Report  *obs.Snapshot `json:",omitempty"`
}

// Config tunes the harness.
type Config struct {
	// Seed drives data generation and every stochastic component.
	Seed int64
	// Quick shrinks the RPM parameter search (fewer splits and
	// evaluations) for fast benchmark iterations.
	Quick bool
	// Methods restricts which classifiers run (default AllMethods()).
	Methods []string
	// Datasets restricts which suite datasets run (default all).
	Datasets []string
	// Workers bounds the harness's concurrency: the per-dataset fan-out
	// of RunSuite/RunTauSweep/RunAblation and, passed through to
	// core.Options.Workers and the 1NN baselines, every parallel stage
	// inside each run (the parallel.Workers convention: 0 ⇒ GOMAXPROCS,
	// 1 ⇒ fully sequential). Result values are identical for any
	// setting; reported wall-clock timings overlap when datasets run
	// concurrently, so use Workers: 1 for paper-faithful Table 2 times.
	Workers int
	// Context, when non-nil, bounds the whole run: RunSuite stops
	// scheduling datasets, the RPM parameter search and the NN-DTWB
	// window sweep stop scheduling evaluations, and the harness returns
	// Context.Err(). nil means context.Background() (never canceled).
	// With a non-canceled context, results are identical to a run
	// without one.
	Context context.Context
	// Instrument gives every dataset run its own obs.Registry: RPM
	// training records its stage spans, counters and worker pools, and
	// the NN-DTWB window search its per-window LOOCV spans, into
	// DatasetResult.Report. Off by default (zero overhead); recording
	// never changes any result value.
	Instrument bool
	// Obs, when non-nil, is the registry the run records into. RunDataset
	// fills it per dataset under Instrument; set it directly to share one
	// registry across a custom single-dataset harness.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	if len(c.Methods) == 0 {
		c.Methods = AllMethods()
	}
	if len(c.Datasets) == 0 {
		for _, g := range datagen.Suite() {
			c.Datasets = append(c.Datasets, g.Name)
		}
	}
	return c
}

// rpmOptions returns the RPM configuration used throughout the harness.
func rpmOptions(cfg Config) core.Options {
	o := core.DefaultOptions()
	o.Seed = cfg.Seed
	if cfg.Quick {
		o.Splits = 2
		o.MaxEvals = 16
	} else {
		o.Splits = 3
		o.MaxEvals = 40
	}
	o.Workers = cfg.Workers
	o.Obs = cfg.Obs
	return o
}

// TrainMethod trains one named classifier and returns it with the elapsed
// training time. cfg.Context cancels the two long-running searches (the
// RPM parameter search, the NN-DTWB window sweep) mid-flight; the other
// baselines are checked before training starts.
func TrainMethod(name string, train ts.Dataset, cfg Config) (predictor, time.Duration, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	if err := cfg.Context.Err(); err != nil {
		return nil, time.Since(start), err
	}
	var p predictor
	var err error
	switch name {
	case MethodNNED:
		ed := nn.NewED(train)
		ed.Workers = cfg.Workers
		p = ed
	case MethodNNDTWB:
		w, werr := nn.BestWindowObs(cfg.Context, train, 0.2, cfg.Workers, cfg.Obs)
		if werr != nil {
			return nil, time.Since(start), werr
		}
		dtw := nn.NewDTW(train, w)
		dtw.Workers = cfg.Workers
		p = dtw
	case MethodSAXVSM:
		p = saxvsm.TrainAuto(train, cfg.Seed)
	case MethodFS:
		p = fastshapelets.Train(train, fastshapelets.Config{Seed: cfg.Seed})
	case MethodLS:
		lsCfg := learnshapelets.Config{Seed: cfg.Seed}
		if cfg.Quick {
			lsCfg.Epochs = 100
		}
		p = learnshapelets.Train(train, lsCfg)
	case MethodRPM:
		p, err = core.TrainContext(cfg.Context, train, rpmOptions(cfg))
	default:
		err = fmt.Errorf("experiments: unknown method %q", name)
	}
	return p, time.Since(start), err
}

// batchPredictor is implemented by classifiers with a native (possibly
// parallel) batch path — RPM and the 1NN baselines.
type batchPredictor interface {
	PredictBatch(test ts.Dataset) []int
}

// predictAll classifies the test set, using the classifier's parallel
// batch path when it has one and the sequential query loop otherwise.
func predictAll(p predictor, test ts.Dataset) []int {
	if bp, ok := p.(batchPredictor); ok {
		return bp.PredictBatch(test)
	}
	preds := make([]int, len(test))
	for i, in := range test {
		preds[i] = p.Predict(in.Values)
	}
	return preds
}

// RunDataset evaluates the configured methods on one dataset split.
// cfg.Context aborts between (and, for RPM and NN-DTWB, inside) methods.
func RunDataset(split dataset.Split, cfg Config) (res DatasetResult, err error) {
	cfg = cfg.withDefaults()
	if cfg.Instrument && cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry() // one registry per dataset run
	}
	res = DatasetResult{Name: split.Name, Results: map[string]MethodResult{}}
	// Named return: the snapshot is attached on every exit path, so a
	// partially evaluated dataset still reports what it measured.
	defer func() { res.Report = cfg.Obs.Snapshot() }()
	for _, m := range cfg.Methods {
		if err := cfg.Context.Err(); err != nil {
			return res, err
		}
		p, trainDur, err := TrainMethod(m, split.Train, cfg)
		if err != nil {
			return res, fmt.Errorf("%s on %s: %w", m, split.Name, err)
		}
		start := time.Now()
		preds := predictAll(p, split.Test)
		classifyDur := time.Since(start)
		res.Results[m] = MethodResult{
			Err:          stats.ErrorRate(preds, split.Test.Labels()),
			TrainTime:    trainDur,
			ClassifyTime: classifyDur,
		}
	}
	return res, nil
}

// RunSuite evaluates the configured methods on every configured dataset,
// fanning the datasets out over cfg.Workers goroutines (each dataset's
// run is fully independent: its own generated split and its own trained
// models). Results are returned in cfg.Datasets order regardless of
// completion order. progress, if non-nil, receives one line per completed
// dataset (serialized, but in completion order when Workers != 1).
func RunSuite(cfg Config, progress func(string)) ([]DatasetResult, error) {
	cfg = cfg.withDefaults()
	var progressMu sync.Mutex
	type outcome struct {
		res DatasetResult
		err error
	}
	outcomes, err := parallel.MapCtx(cfg.Context, len(cfg.Datasets), cfg.Workers, func(i int) outcome {
		name := cfg.Datasets[i]
		g, ok := datagen.ByName(name)
		if !ok {
			return outcome{err: fmt.Errorf("experiments: unknown dataset %q", name)}
		}
		split := g.Generate(cfg.Seed)
		res, err := RunDataset(split, cfg)
		if err != nil {
			return outcome{err: err}
		}
		if progress != nil {
			progressMu.Lock()
			progress(fmt.Sprintf("done %-18s %s", name, summarize(res, cfg.Methods)))
			progressMu.Unlock()
		}
		return outcome{res: res}
	})
	if err != nil {
		return nil, err
	}
	out := make([]DatasetResult, 0, len(outcomes))
	for _, o := range outcomes {
		if o.err != nil {
			return nil, o.err
		}
		out = append(out, o.res)
	}
	return out, nil
}

func summarize(res DatasetResult, methods []string) string {
	s := ""
	for _, m := range methods {
		r, ok := res.Results[m]
		if !ok {
			continue
		}
		s += fmt.Sprintf("%s=%.3f ", m, r.Err)
	}
	return s
}

// BestCounts returns, per method, in how many datasets it achieved the
// lowest error (ties included), the "# of best" row of Table 1.
func BestCounts(results []DatasetResult, methods []string, metric func(MethodResult) float64) map[string]int {
	counts := map[string]int{}
	for _, dr := range results {
		best := bestValue(dr, methods, metric)
		for _, m := range methods {
			if r, ok := dr.Results[m]; ok && metric(r) <= best+1e-12 {
				counts[m]++
			}
		}
	}
	return counts
}

func bestValue(dr DatasetResult, methods []string, metric func(MethodResult) float64) float64 {
	best := -1.0
	for _, m := range methods {
		if r, ok := dr.Results[m]; ok {
			v := metric(r)
			if best < 0 || v < best {
				best = v
			}
		}
	}
	return best
}

// ErrMetric and TimeMetric are the metrics Tables 1 and 2 rank by.
func ErrMetric(r MethodResult) float64  { return r.Err }
func TimeMetric(r MethodResult) float64 { return r.Total().Seconds() }

// PairedErrors extracts the aligned per-dataset error vectors of two
// methods, for Wilcoxon tests and scatter plots.
func PairedErrors(results []DatasetResult, a, b string) (va, vb []float64, names []string) {
	for _, dr := range results {
		ra, oka := dr.Results[a]
		rb, okb := dr.Results[b]
		if oka && okb {
			va = append(va, ra.Err)
			vb = append(vb, rb.Err)
			names = append(names, dr.Name)
		}
	}
	return va, vb, names
}

// Wilcoxon runs the signed-rank test on two methods' per-dataset errors.
func Wilcoxon(results []DatasetResult, a, b string) float64 {
	va, vb, _ := PairedErrors(results, a, b)
	return stats.WilcoxonSignedRank(va, vb)
}

// SortedDatasetNames returns the result names in deterministic order.
func SortedDatasetNames(results []DatasetResult) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Name
	}
	sort.Strings(out)
	return out
}
