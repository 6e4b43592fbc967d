// Command benchtab regenerates the paper's evaluation artifacts — every
// table and figure of §5–§6 — on the synthetic dataset suite and prints
// them to stdout (see EXPERIMENTS.md for the index).
//
// Usage:
//
//	benchtab -exp table1            # Table 1: error of all six methods
//	benchtab -exp table2            # Table 2: runtime of LS/FS/RPM
//	benchtab -exp table3            # Table 3: τ sensitivity aggregate
//	benchtab -exp table4            # Table 4: rotated-test error
//	benchtab -exp fig7|fig8|fig9    # figure data
//	benchtab -exp alarm             # §6.2 medical-alarm case study
//	benchtab -exp all               # everything
//	benchtab -exp table1 -datasets SynCBF,SynCoffee -quick -seed 7
//	benchtab -exp table1 -workers 0 # fan out across every core
//
// -workers controls the harness's concurrency: datasets fan out across
// worker goroutines and every parallel stage inside RPM and the 1NN
// baselines uses the same bound (0 = all cores, the default; 1 = fully
// sequential). Result values are identical for any setting; pass
// -workers 1 when the per-method wall-clock times themselves are the
// experiment (Table 2), since concurrent datasets share the machine.
//
// Every experiment is a method list run by the archive runner
// (internal/experiments/archive) in strict mode, with checkpoints in a
// temporary directory that is removed afterwards. Each dataset's
// methods record into one instrumentation registry; -report json|text
// appends those per-dataset reports (stage timings, pipeline counters,
// worker-pool usage) after the experiment output. -debug-addr starts an
// HTTP debug server for the duration of the run serving /debug/pprof/*
// (CPU, heap, goroutine profiles), /debug/vars (expvar, including the
// live instrumentation snapshot under "rpm_obs") and /debug/obs (the
// live snapshot directly; ?format=text for a human view). With
// -debug-addr all datasets share one registry, so per-dataset reports
// show cumulative-to-date values.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"strings"

	"rpm/internal/experiments"
	"rpm/internal/experiments/archive"
	"rpm/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1,table2,table3,table4,fig7,fig8,fig9,alarm,ablate,all")
	seed := flag.Int64("seed", 1, "random seed for data generation and training")
	quick := flag.Bool("quick", false, "use reduced parameter-search budgets")
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default: full suite)")
	workers := flag.Int("workers", 0, "worker goroutines for dataset fan-out and RPM/1NN internals (0 = all cores, 1 = sequential)")
	svgDir := flag.String("svg", "", "also render the figures as SVG files into this directory")
	verbose := flag.Bool("v", true, "print per-dataset progress to stderr")
	report := flag.String("report", "", "print per-dataset instrumentation reports after the run: json or text")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address (e.g. localhost:6060) for the duration of the run")
	flag.Parse()

	if *report != "" && *report != "json" && *report != "text" {
		fmt.Fprintf(os.Stderr, "benchtab: unknown -report format %q (want json or text)\n", *report)
		os.Exit(2)
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick, Workers: *workers}
	suite := archive.Config{Source: archive.SyntheticSource{Seed: *seed}, Seed: *seed, Workers: *workers}
	if *datasets != "" {
		suite.Datasets = strings.Split(*datasets, ",")
	}
	if *debugAddr != "" {
		// One shared live registry for the whole run: the debug endpoints
		// watch training progress while it happens.
		shared := obs.NewRegistry()
		suite.Obs = shared
		http.Handle("/debug/obs", obs.Handler(shared))
		expvar.Publish("rpm_obs", expvar.Func(func() any { return shared.Snapshot() }))
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "benchtab: debug server on http://%s/debug/pprof/ (also /debug/vars, /debug/obs)\n", *debugAddr)
	}
	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
		suite.Progress = progress
	}

	if err := run(context.Background(), *exp, cfg, suite, *svgDir, *report, progress); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

// emitReports prints the per-dataset instrumentation snapshots in the
// requested format ("" = off). A dataset's rows share one snapshot.
func emitReports(rows []archive.Outcome, format string) error {
	type item struct {
		Dataset string        `json:"dataset"`
		Report  *obs.Snapshot `json:"report"`
	}
	var items []item
	for i, r := range rows {
		if i == 0 || rows[i-1].Dataset != r.Dataset {
			items = append(items, item{Dataset: r.Dataset, Report: r.Report})
		}
	}
	switch format {
	case "":
		return nil
	case "json":
		b, err := json.MarshalIndent(items, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	case "text":
		for _, it := range items {
			fmt.Printf("== %s ==\n%s", it.Dataset, it.Report.Text())
		}
		return nil
	default:
		return fmt.Errorf("unknown report format %q (want json or text)", format)
	}
}

// run evaluates and prints one experiment. suite is the runner
// configuration of the suite-driven experiments; Table 4 and the case
// study swap in their own sources.
func run(ctx context.Context, exp string, cfg experiments.Config, suite archive.Config, svgDir, reportFmt string, progress func(string)) error {
	evaluate := func(methods []archive.Method, src archive.Source) ([]archive.Outcome, error) {
		r := suite
		r.Methods = methods
		if src != nil {
			r.Source, r.Datasets = src, nil
		}
		return experiments.Evaluate(ctx, r)
	}
	emitSVG := func(write func() ([]string, error)) error {
		if svgDir == "" {
			return nil
		}
		paths, err := write()
		if err != nil {
			return err
		}
		for _, p := range paths {
			progress("wrote " + p)
		}
		return nil
	}
	needSuite := map[string]bool{"table1": true, "table2": true, "fig7": true, "fig8": true, "all": true, "main": true}
	var rows []archive.Outcome
	var err error
	if needSuite[exp] {
		rows, err = evaluate(experiments.Methods(cfg, experiments.AllMethods()...), nil)
		if err != nil {
			return err
		}
		defer func() {
			// Reports print after the experiment's own artifacts.
			if err := emitReports(rows, reportFmt); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: reports:", err)
			}
		}()
	}
	switch exp {
	case "main":
		// the four suite-driven artifacts from a single run
		fmt.Println(experiments.FormatTable1(rows, experiments.AllMethods()))
		fmt.Println(experiments.FormatTable2(rows))
		fmt.Println(experiments.FormatFig7(rows, experiments.AllMethods()))
		fmt.Println(experiments.FormatFig8(rows))
		if err := emitSVG(func() ([]string, error) {
			p1, err := experiments.WriteFig7SVG(svgDir, rows, experiments.AllMethods())
			if err != nil {
				return p1, err
			}
			p2, err := experiments.WriteFig8SVG(svgDir, rows)
			return append(p1, p2...), err
		}); err != nil {
			return err
		}
	case "table1":
		fmt.Println(experiments.FormatTable1(rows, experiments.AllMethods()))
	case "table2":
		fmt.Println(experiments.FormatTable2(rows))
	case "fig7":
		fmt.Println(experiments.FormatFig7(rows, experiments.AllMethods()))
		if err := emitSVG(func() ([]string, error) {
			return experiments.WriteFig7SVG(svgDir, rows, experiments.AllMethods())
		}); err != nil {
			return err
		}
	case "fig8":
		fmt.Println(experiments.FormatFig8(rows))
		if err := emitSVG(func() ([]string, error) {
			return experiments.WriteFig8SVG(svgDir, rows)
		}); err != nil {
			return err
		}
	case "table3", "fig9":
		sweep, err := evaluate(experiments.TauMethods(cfg), nil)
		if err != nil {
			return err
		}
		if exp == "table3" {
			fmt.Println(experiments.FormatTable3(sweep))
		} else {
			fmt.Println(experiments.FormatFig9(sweep))
			if err := emitSVG(func() ([]string, error) {
				return experiments.WriteFig9SVG(svgDir, sweep)
			}); err != nil {
				return err
			}
		}
	case "table4":
		rot, err := evaluate(experiments.RotationMethods(cfg), experiments.RotationSource(cfg.Seed))
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable4(rot))
	case "alarm":
		alarm, err := evaluate(experiments.Methods(cfg, experiments.AllMethods()...), experiments.AlarmSource(cfg.Seed))
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAlarmCase(alarm, experiments.AllMethods()))
	case "ablate":
		abl, err := evaluate(experiments.AblationMethods(cfg), nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblation(abl))
	case "all":
		fmt.Println(experiments.FormatTable1(rows, experiments.AllMethods()))
		fmt.Println(experiments.FormatTable2(rows))
		fmt.Println(experiments.FormatFig7(rows, experiments.AllMethods()))
		fmt.Println(experiments.FormatFig8(rows))
		sweep, err := evaluate(experiments.TauMethods(cfg), nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable3(sweep))
		fmt.Println(experiments.FormatFig9(sweep))
		rot, err := evaluate(experiments.RotationMethods(cfg), experiments.RotationSource(cfg.Seed))
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable4(rot))
		alarm, err := evaluate(experiments.Methods(cfg, experiments.AllMethods()...), experiments.AlarmSource(cfg.Seed))
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAlarmCase(alarm, experiments.AllMethods()))
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
