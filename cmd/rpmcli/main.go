// Command rpmcli trains an RPM classifier on a UCR-format training file
// and classifies a UCR-format test file, printing the error rate, the
// discovered representative patterns, and the per-class SAX parameters.
//
// Usage:
//
//	rpmcli -train Coffee_TRAIN -test Coffee_TEST
//	rpmcli -train X_TRAIN -test X_TEST -mode fixed -window 40 -paa 6 -alpha 4
//	rpmcli -train X_TRAIN -test X_TEST -rotinv -gamma 0.3 -patterns
//	rpmcli -train X_TRAIN -motifs -window 40 -paa 6 -alpha 4
//	rpmcli -remote http://localhost:8080 -test Coffee_TEST
//
// With -remote the test set is classified by a running rpmserved
// instance instead of a local model: series are sent in chunks through
// the resilient client (retries with backoff, circuit breaker — see
// DESIGN.md §13), so transient server hiccups do not fail the run.
// -model selects the served model (empty = server default).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"rpm"
	serveclient "rpm/internal/serve/client"
)

func main() {
	def := rpm.DefaultOptions()
	trainPath := flag.String("train", "", "UCR-format training file (required)")
	testPath := flag.String("test", "", "UCR-format test file (required unless -motifs)")
	mode := flag.String("mode", def.Mode.String(), "parameter selection: direct, grid, fixed")
	window := flag.Int("window", 0, "SAX window (fixed mode)")
	paa := flag.Int("paa", 0, "SAX PAA size (fixed mode)")
	alpha := flag.Int("alpha", 0, "SAX alphabet size (fixed mode)")
	gamma := flag.Float64("gamma", def.Gamma, "minimum pattern support fraction")
	tau := flag.Float64("tau", def.TauPercentile, "similar-pattern threshold percentile")
	rotInv := flag.Bool("rotinv", false, "rotation-invariant classification")
	medoid := flag.Bool("medoid", false, "use cluster medoids instead of centroids")
	seed := flag.Int64("seed", def.Seed, "random seed")
	splits := flag.Int("splits", def.Splits, "train/validate splits per parameter evaluation")
	maxEvals := flag.Int("maxevals", def.MaxEvals, "parameter-search evaluations per class")
	showPatterns := flag.Bool("patterns", false, "print the representative patterns")
	znorm := flag.Bool("znorm", false, "z-normalize instances before training")
	saveModel := flag.String("save", "", "write the trained model to this file")
	loadModel := flag.String("load", "", "load a trained model instead of training")
	motifsOnly := flag.Bool("motifs", false, "discover class-specific motifs only (no classifier); requires fixed -window/-paa/-alpha")
	report := flag.String("report", "", "print the training instrumentation report after classification: json or text")
	remote := flag.String("remote", "", "classify -test against a running rpmserved at this base URL instead of a local model")
	remoteModel := flag.String("model", "", "served model name for -remote (empty = server default)")
	chunk := flag.Int("chunk", 256, "series per /v1/predict:batch call with -remote")
	flag.Parse()

	if *report != "" && *report != "json" && *report != "text" {
		fatal(fmt.Errorf("unknown -report format %q (want json or text)", *report))
	}

	if *remote != "" {
		if *testPath == "" || *chunk < 1 {
			fmt.Fprintln(os.Stderr, "rpmcli: -remote requires -test and a positive -chunk")
			os.Exit(2)
		}
		test, err := loadFile(*testPath)
		if err != nil {
			fatal(err)
		}
		if *znorm {
			rpm.ZNormalize(test)
		}
		if err := classifyRemote(*remote, *remoteModel, *chunk, test); err != nil {
			fatal(err)
		}
		return
	}

	if *motifsOnly && *trainPath == "" {
		fmt.Fprintln(os.Stderr, "rpmcli: -motifs requires -train")
		os.Exit(2)
	}
	if (*trainPath == "" && *loadModel == "") || (*testPath == "" && !*motifsOnly) {
		flag.Usage()
		os.Exit(2)
	}
	var train rpm.Dataset
	var err error
	if *trainPath != "" {
		if train, err = loadFile(*trainPath); err != nil {
			fatal(err)
		}
	}
	if *znorm {
		rpm.ZNormalize(train)
	}

	opts := def
	opts.Gamma = *gamma
	opts.TauPercentile = *tau
	opts.RotationInvariant = *rotInv
	opts.UseMedoid = *medoid
	opts.Seed = *seed
	opts.Splits = *splits
	opts.MaxEvals = *maxEvals
	opts.Instrument = *report != ""
	modes := []rpm.ParamMode{rpm.ParamDIRECT, rpm.ParamGrid, rpm.ParamFixed}
	i := slices.IndexFunc(modes, func(m rpm.ParamMode) bool { return m.String() == *mode })
	if i < 0 {
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if opts.Mode = modes[i]; opts.Mode == rpm.ParamFixed {
		opts.Params = rpm.SAXParams{Window: *window, PAA: *paa, Alphabet: *alpha}
	}

	if *motifsOnly {
		if *window == 0 || *paa == 0 || *alpha == 0 {
			fatal(fmt.Errorf("-motifs requires -window, -paa and -alpha"))
		}
		motifs := rpm.DiscoverMotifs(train, rpm.SAXParams{Window: *window, PAA: *paa, Alphabet: *alpha}, opts)
		for _, class := range sortedClasses(motifs) {
			ms := motifs[class]
			fmt.Printf("class %d: %d motifs\n", class, len(ms))
			for i, m := range ms {
				fmt.Printf("  motif %d: support=%d occurrences=%d prototype-length=%d\n",
					i, m.Support, len(m.Occurrences), len(m.Prototype))
			}
		}
		return
	}
	test, err := loadFile(*testPath)
	if err != nil {
		fatal(err)
	}
	if *znorm {
		rpm.ZNormalize(test)
	}
	var clf *rpm.Classifier
	if *loadModel != "" {
		f, err := os.Open(*loadModel)
		if err != nil {
			fatal(err)
		}
		clf, err = rpm.LoadClassifier(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		clf, err = rpm.Train(train, opts)
		if err != nil {
			fatal(err)
		}
	}
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			fatal(err)
		}
		if err := clf.Save(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("model saved to %s\n", *saveModel)
	}
	preds := clf.PredictBatch(test)
	wrong := 0
	for i, p := range preds {
		if p != test[i].Label {
			wrong++
		}
	}
	fmt.Printf("instances: train=%d test=%d\n", len(train), len(test))
	fmt.Printf("patterns:  %d\n", len(clf.Patterns()))
	fmt.Printf("error:     %.4f (%d/%d wrong)\n", float64(wrong)/float64(len(test)), wrong, len(test))
	fmt.Println("per-class SAX parameters:")
	params := clf.PerClassParams()
	for _, class := range sortedClasses(params) {
		p := params[class]
		fmt.Printf("  class %d: window=%d paa=%d alphabet=%d\n", class, p.Window, p.PAA, p.Alphabet)
	}
	if *showPatterns {
		for i, p := range clf.Patterns() {
			fmt.Printf("pattern %d: class=%d len=%d support=%d freq=%d\n", i, p.Class, len(p.Values), p.Support, p.Freq)
			fmt.Printf("  values: %v\n", p.Values)
		}
	}
	if *report != "" {
		tr := clf.TrainReport()
		if tr == nil {
			fmt.Println("training report: none (model was loaded, not trained)")
		} else if *report == "json" {
			b, err := tr.JSON()
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(b))
		} else {
			fmt.Printf("training report:\n%s", tr)
		}
	}
}

// classifyRemote sends the test set to a running rpmserved in -chunk
// sized /v1/predict:batch calls through the resilient client and prints
// the same error-rate summary the local path does. Chunking bounds both
// request payloads and the blast radius of one failed call.
func classifyRemote(baseURL, model string, chunk int, test rpm.Dataset) error {
	c, err := serveclient.New(serveclient.Config{BaseURL: baseURL})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := c.WaitReady(ctx, 10*time.Second); err != nil {
		return err
	}
	preds := make([]int, 0, len(test))
	version := 0
	served := model
	for lo := 0; lo < len(test); lo += chunk {
		hi := min(lo+chunk, len(test))
		series := make([][]float64, 0, hi-lo)
		for _, inst := range test[lo:hi] {
			series = append(series, inst.Values)
		}
		res, err := c.PredictBatch(ctx, model, series)
		if err != nil {
			return fmt.Errorf("batch [%d:%d]: %w", lo, hi, err)
		}
		if len(res.Labels) != hi-lo {
			return fmt.Errorf("batch [%d:%d]: server answered %d labels", lo, hi, len(res.Labels))
		}
		preds = append(preds, res.Labels...)
		version = res.Version
		served = res.Model
	}
	wrong := 0
	for i, p := range preds {
		if p != test[i].Label {
			wrong++
		}
	}
	fmt.Printf("remote:    %s model=%q v%d (chunks of %d)\n", baseURL, served, version, chunk)
	fmt.Printf("instances: test=%d\n", len(test))
	fmt.Printf("error:     %.4f (%d/%d wrong)\n", float64(wrong)/float64(len(test)), wrong, len(test))
	return nil
}

// sortedClasses returns m's class labels in ascending order, so the
// per-class output lines print in the same order on every run.
func sortedClasses[V any](m map[int]V) []int {
	classes := make([]int, 0, len(m))
	for class := range m {
		classes = append(classes, class)
	}
	slices.Sort(classes)
	return classes
}

func loadFile(path string) (rpm.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rpm.LoadUCR(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpmcli:", err)
	os.Exit(1)
}
