// Package experiments regenerates every table and figure of the paper's
// evaluation (§5–§6) on the synthetic dataset suite: Table 1
// (classification error of six methods), Table 2 (running time of LS, FS
// and RPM), Table 3 / Figure 9 (sensitivity to the similarity threshold
// τ), Table 4 (error on rotated test data), Figures 7 and 8 (pairwise
// comparison scatters with Wilcoxon p-values), and the §6.2 medical-alarm
// case study.
//
// Every experiment is a list of methods run by the archive runner
// (internal/experiments/archive); this package supplies the method
// constructors, the in-memory sources of Table 4 and the case study, and
// the formatters and SVG writers over the runner's rows. cmd/benchtab is
// the command-line front end; bench_test.go exposes the same runs as
// testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"os"
	"sort"

	"rpm"
	"rpm/internal/core"
	"rpm/internal/experiments/archive"
	"rpm/internal/fastshapelets"
	"rpm/internal/learnshapelets"
	"rpm/internal/nn"
	"rpm/internal/obs"
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

// Config sets what the method constructors build.
type Config struct {
	// Seed drives every stochastic component of the methods.
	Seed int64
	// Quick shrinks the RPM parameter search (fewer splits and
	// evaluations) and LS training for fast benchmark iterations.
	Quick bool
	// Workers bounds every parallel stage inside RPM and the 1NN
	// baselines (the parallel.Workers convention: 0 ⇒ GOMAXPROCS, 1 ⇒
	// fully sequential). Result values are identical for any setting.
	Workers int
}

// predictor is what every method's trained classifier provides.
type predictor interface {
	PredictBatch(test ts.Dataset) []int
}

// Methods returns the named Table 1 classifiers (see AllMethods) as
// runner methods. Training a name that is not a Method* constant fails.
func Methods(cfg Config, names ...string) []archive.Method {
	out := make([]archive.Method, 0, len(names))
	for _, name := range names {
		if name == MethodRPM {
			out = append(out, rpmMethod(MethodRPM, rpmOptions(cfg)))
			continue
		}
		out = append(out, archive.Method{
			Name: name,
			Settings: struct {
				Seed  int64
				Quick bool
			}{cfg.Seed, cfg.Quick},
			Train: func(ctx context.Context, train rpm.Dataset, reg *obs.Registry) (archive.Model, error) {
				if err := ctx.Err(); err != nil {
					return archive.Model{}, err
				}
				p, err := trainBaseline(ctx, name, train, cfg, reg)
				if err != nil {
					return archive.Model{}, err
				}
				return model(p, 0), nil
			},
		})
	}
	return out
}

// trainBaseline trains one of the Table 1 rivals of RPM. ctx cancels
// the NN-DTWB window search mid-flight; the other baselines run to
// completion once started.
func trainBaseline(ctx context.Context, name string, train ts.Dataset, cfg Config, reg *obs.Registry) (predictor, error) {
	switch name {
	case MethodNNED:
		ed := nn.NewED(train)
		ed.Workers = cfg.Workers
		return ed, nil
	case MethodNNDTWB:
		w, err := nn.BestWindow(ctx, train, 0.2, cfg.Workers, reg)
		if err != nil {
			return nil, err
		}
		dtw := nn.NewDTW(train, w)
		dtw.Workers = cfg.Workers
		return dtw, nil
	case MethodSAXVSM:
		return saxvsm.TrainAuto(train, cfg.Seed), nil
	case MethodFS:
		return fastshapelets.Train(train, cfg.Seed), nil
	case MethodLS:
		lsCfg := learnshapelets.Config{Seed: cfg.Seed}
		if cfg.Quick {
			lsCfg.Epochs = 100
		}
		return learnshapelets.Train(train, lsCfg), nil
	}
	return nil, fmt.Errorf("experiments: unknown method %q", name)
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
	return o
}

// rpmMethod trains RPM with o, recording into the dataset's registry.
func rpmMethod(name string, o core.Options) archive.Method {
	settings := o
	settings.Workers = 0
	return archive.Method{Name: name, Settings: settings, Train: func(ctx context.Context, train rpm.Dataset, reg *obs.Registry) (archive.Model, error) {
		o := o
		o.Obs = reg
		clf, err := core.TrainContext(ctx, train, o)
		if err != nil {
			return archive.Model{}, err
		}
		return model(clf, clf.NumPatterns()), nil
	}}
}

// model wraps a trained classifier for the runner.
func model(p predictor, patterns int) archive.Model {
	return archive.Model{Patterns: patterns, Predict: func(_ context.Context, test rpm.Dataset) ([]int, error) {
		return p.PredictBatch(test), nil
	}}
}

// Evaluate runs an experiment through the archive runner: strict (the
// first failed row fails the run), with checkpoints in a scratch
// directory it removes. Rows come back in run.Datasets order (the
// source's own order when empty) instead of the runner's sorted order,
// methods in list order within a dataset.
func Evaluate(ctx context.Context, run archive.Config) ([]archive.Outcome, error) {
	dir, err := os.MkdirTemp("", "experiments-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	run.OutDir, run.Strict = dir, true
	res, err := archive.Run(ctx, run)
	if err != nil {
		return nil, err
	}
	order := run.Datasets
	if len(order) == 0 {
		if order, err = run.Source.Names(); err != nil {
			return nil, err
		}
	}
	rank := make(map[string]int, len(order))
	for i, name := range order {
		rank[name] = i
	}
	rows := res.Outcomes
	sort.SliceStable(rows, func(i, j int) bool { return rank[rows[i].Dataset] < rank[rows[j].Dataset] })
	return rows, nil
}

// datasetRows is one dataset's rows keyed by method name.
type datasetRows struct {
	name string
	rows map[string]archive.Outcome
}

// byDataset groups runner rows by dataset, keeping the rows' order.
func byDataset(rows []archive.Outcome) []datasetRows {
	var out []datasetRows
	for _, oc := range rows {
		if len(out) == 0 || out[len(out)-1].name != oc.Dataset {
			out = append(out, datasetRows{name: oc.Dataset, rows: map[string]archive.Outcome{}})
		}
		out[len(out)-1].rows[oc.Method] = oc
	}
	return out
}

// BestCounts returns, per method, in how many datasets it achieved the
// lowest metric (ties included), the "# of best" row of Tables 1 and 2.
func BestCounts(rows []archive.Outcome, methods []string, metric func(archive.Outcome) float64) map[string]int {
	counts := map[string]int{}
	for _, dr := range byDataset(rows) {
		best := bestValue(dr, methods, metric)
		for _, m := range methods {
			if r, ok := dr.rows[m]; ok && metric(r) <= best+1e-12 {
				counts[m]++
			}
		}
	}
	return counts
}

func bestValue(dr datasetRows, methods []string, metric func(archive.Outcome) float64) float64 {
	best := -1.0
	for _, m := range methods {
		if r, ok := dr.rows[m]; ok {
			v := metric(r)
			if best < 0 || v < best {
				best = v
			}
		}
	}
	return best
}

// ErrMetric and TimeMetric are the metrics Tables 1 and 2 rank by: the
// error rate and the train + classify seconds.
func ErrMetric(r archive.Outcome) float64 { return r.ErrorRate() }
func TimeMetric(r archive.Outcome) float64 {
	return (r.TrainMillis + r.PredictMillis) / 1000
}

// PairedErrors extracts the aligned per-dataset error vectors of two
// methods, for Wilcoxon tests and scatter plots.
func PairedErrors(rows []archive.Outcome, a, b string) (va, vb []float64, names []string) {
	for _, dr := range byDataset(rows) {
		ra, oka := dr.rows[a]
		rb, okb := dr.rows[b]
		if oka && okb {
			va = append(va, ra.ErrorRate())
			vb = append(vb, rb.ErrorRate())
			names = append(names, dr.name)
		}
	}
	return va, vb, names
}

// Wilcoxon runs the signed-rank test on two methods' per-dataset errors.
func Wilcoxon(rows []archive.Outcome, a, b string) float64 {
	va, vb, _ := PairedErrors(rows, a, b)
	return stats.WilcoxonSignedRank(va, vb)
}
