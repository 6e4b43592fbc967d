// Command rpmarchive is the repo's one suite runner (DESIGN.md §15). It
// trains and scores a list of methods on every dataset of a suite
// through the archive runner, checkpointing each finished dataset
// atomically so a killed run resumes exactly where it stopped, and
// renders the result: RPM's correctness+efficiency table, or the
// paper's tables and figures of §5–§6 (EXPERIMENTS.md has the index).
//
// -exp picks the experiment. Each experiment is one or more runs, and
// each run checkpoints into <out>/<run>/:
//
//	rpm       RPM on the suite (the default): the archive table
//	main      the six Table 1 methods on the suite: Table 1, Table 2, Figs. 7 and 8
//	tau       the τ sweep on the suite: Table 3 and Fig. 9
//	rotation  rotated test data: Table 4
//	alarm     the §6.2 medical-alarm case study
//	ablate    the RPM design-choice ablation on the suite
//	all       main, tau, rotation and alarm in sequence
//
// Usage:
//
//	rpmarchive -out ./out/archive                        # synthetic suite
//	rpmarchive -out ./out/a -datasets SynCBF,SynCoffee   # subset
//	rpmarchive -out ./out/a -dir ./data                  # UCR files on disk
//	rpmarchive -out ./out/a -resume                      # skip checkpointed datasets
//	rpmarchive -out ./out/a -shard 1/4                   # this run takes shard 1 of 4
//	rpmarchive -out ./out/a -sample-rate 0.2 -bags 5     # fast sampled ensemble
//	rpmarchive -out ./out/a -json -deterministic         # byte-comparable output
//	rpmarchive -out ./out/p -exp all                     # every paper table and figure
//	rpmarchive -out ./out/p -exp main -quick -svg figures
//
// A sharded paper table runs each -shard k/n into the same -out; one
// -resume run without -shard then renders the whole table from the
// checkpoints. A flag the chosen experiment does not read is a usage
// error.
//
// -workers bounds both the dataset fan-out and every parallel stage
// inside the methods (0 = all cores, 1 = sequential). Results never
// depend on it; pass -workers 1 when the wall times themselves are the
// experiment (Table 2), since concurrent datasets share the machine.
// Progress goes to stderr, one line per finished dataset. -report
// json|text prints, after each run's output, the training report
// (stage timings, pipeline counters, worker-pool usage) of every RPM
// row, labelled dataset / method; baseline and resumed rows have none.
// Under -json, -report json makes them the JSON output's "reports" field,
// and -report text is a usage error.
// -debug-addr serves /debug/pprof/* and /debug/vars for the duration of
// the run.
package main

import (
	"context"
	"encoding/json"
	_ "expvar" // registers /debug/vars on the default mux
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rpm"
	"rpm/internal/experiments"
	"rpm/internal/experiments/archive"
)

// commonFlags are read by every run; runFlags lists, per run, what it
// reads on top. -exp all is the runs main, tau, rotation and alarm.
const commonFlags = "exp out seed workers shard timeout resume json deterministic strict report debug-addr"

var runFlags = map[string]string{
	"rpm":      "dir datasets mode window paa alpha sample-rate sample-seed bags",
	"main":     "dir datasets quick svg",
	"tau":      "dir datasets quick svg",
	"rotation": "quick",
	"alarm":    "quick",
	"ablate":   "dir datasets quick",
}

// run is one method list over one source (nil: the suite). render
// returns a paper run's artifacts from its rows in source order, and
// svg writes its figures; the rpm run has neither and prints the
// archive table.
type run struct {
	methods []archive.Method
	source  func(seed int64) archive.Source
	render  func(rows []archive.Outcome) []string
	svg     []func(dir string, rows []archive.Outcome) ([]string, error)
}

func main() {
	exp := flag.String("exp", "rpm", "experiment: rpm, main, tau, rotation, alarm, ablate or all")
	out := flag.String("out", "", "checkpoint/output directory (required); each run writes <out>/<run>/")
	dir := flag.String("dir", "", "read UCR-layout datasets from this directory instead of generating the synthetic suite")
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default: all)")
	seed := flag.Int64("seed", 1, "run seed: synthetic data generation and training")
	workers := flag.Int("workers", 0, "bound on the dataset fan-out and every parallel stage inside the methods (0 = all cores, 1 = sequential); never changes results")
	shard := flag.String("shard", "", "shard spec k/n: this run takes every n-th dataset starting at k")
	timeout := flag.Duration("timeout", 0, "per-dataset train+evaluate budget (0 = unbounded)")
	mode := flag.String("mode", "direct", "SAX parameter search: direct, grid, or fixed")
	window := flag.Int("window", 0, "fixed SAX window (mode=fixed; 0 = heuristic)")
	paa := flag.Int("paa", 0, "fixed PAA size (mode=fixed)")
	alpha := flag.Int("alpha", 0, "fixed alphabet size (mode=fixed)")
	sampleRate := flag.Float64("sample-rate", 0, "candidate-pool sampling rate in (0,1); 0 = exhaustive")
	sampleSeed := flag.Int64("sample-seed", 0, "sampling seed (0 = derive from -seed)")
	bags := flag.Int("bags", 0, "bagged-ensemble width (>1 requires -sample-rate)")
	quick := flag.Bool("quick", false, "paper experiments: use reduced parameter-search budgets")
	svgDir := flag.String("svg", "", "also render the figures as SVG files into this directory")
	report := flag.String("report", "", "print each RPM row's training report after the run's output: json or text")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. localhost:6060) for the duration of the run")
	resume := flag.Bool("resume", false, "serve datasets with valid checkpoints from disk")
	asJSON := flag.Bool("json", false, "emit each run's result as JSON instead of a text table")
	deterministic := flag.Bool("deterministic", false, "strip wall times and resume marks so outputs of identical configs compare byte for byte")
	strict := flag.Bool("strict", false, "exit non-zero on any dataset failure or corrupt checkpoint")
	flag.Parse()

	runNames := []string{*exp}
	if *exp == "all" {
		runNames = []string{"main", "tau", "rotation", "alarm"}
	}
	read := strings.Fields(commonFlags)
	for _, name := range runNames {
		if _, ok := runFlags[name]; !ok {
			usage(fmt.Errorf("unknown -exp %q (rpm, main, tau, rotation, alarm, ablate, all)", *exp))
		}
		read = append(read, strings.Fields(runFlags[name])...)
	}
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(read, f.Name) {
			usage(fmt.Errorf("-exp %s does not read -%s", *exp, f.Name))
		}
	})
	if *report != "" && *report != "json" && *report != "text" {
		usage(fmt.Errorf("unknown -report format %q (want json or text)", *report))
	}
	if *report == "text" && *asJSON {
		// Text after the JSON document would break every reader of it.
		usage(fmt.Errorf("-json takes -report json, not text"))
	}
	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}

	progress := func(s string) { fmt.Fprintln(os.Stderr, s) }
	suite := archive.Config{
		Seed:     *seed,
		Workers:  *workers,
		Timeout:  *timeout,
		Resume:   *resume,
		Strict:   *strict,
		Progress: progress,
	}
	if *datasets != "" {
		for _, n := range strings.Split(*datasets, ",") {
			if n = strings.TrimSpace(n); n != "" {
				suite.Datasets = append(suite.Datasets, n)
			}
		}
	}
	if *dir != "" {
		suite.Source = archive.DirSource{Dir: *dir}
	} else {
		suite.Source = archive.SyntheticSource{Seed: *seed}
	}
	if *shard != "" {
		k, n, err := parseShard(*shard)
		if err != nil {
			fatal(err)
		}
		suite.Shard, suite.Shards = k, n
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rpmarchive: debug server:", err)
			}
		}()
		progress(fmt.Sprintf("rpmarchive: debug server on http://%s/debug/pprof/ (also /debug/vars)", *debugAddr))
	}

	opts := rpm.DefaultOptions()
	opts.Seed, opts.Workers, opts.Bags = *seed, *workers, *bags
	opts.Sample = rpm.SampleOptions{Rate: *sampleRate, Seed: *sampleSeed}
	modes := []rpm.ParamMode{rpm.ParamDIRECT, rpm.ParamGrid, rpm.ParamFixed}
	i := slices.IndexFunc(modes, func(m rpm.ParamMode) bool { return m.String() == *mode })
	if i < 0 {
		fatal(fmt.Errorf("unknown -mode %q (direct, grid, fixed)", *mode))
	}
	if opts.Mode = modes[i]; opts.Mode == rpm.ParamFixed {
		opts.Params = rpm.SAXParams{Window: *window, PAA: *paa, Alphabet: *alpha}
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick, Workers: *workers}
	all := experiments.AllMethods()
	runs := map[string]run{
		"rpm": {methods: []archive.Method{archive.RPM("RPM", opts)}},
		"main": {methods: experiments.Methods(cfg, all...), render: func(rows []archive.Outcome) []string {
			return []string{experiments.FormatTable1(rows, all), experiments.FormatTable2(rows),
				experiments.FormatFig7(rows, all), experiments.FormatFig8(rows)}
		}, svg: []func(string, []archive.Outcome) ([]string, error){func(dir string, rows []archive.Outcome) ([]string, error) {
			return experiments.WriteFig7SVG(dir, rows, all)
		}, experiments.WriteFig8SVG}},
		"tau": {methods: experiments.TauMethods(cfg), render: func(rows []archive.Outcome) []string {
			return []string{experiments.FormatTable3(rows), experiments.FormatFig9(rows)}
		}, svg: []func(string, []archive.Outcome) ([]string, error){experiments.WriteFig9SVG}},
		"rotation": {methods: experiments.RotationMethods(cfg), source: experiments.RotationSource, render: func(rows []archive.Outcome) []string {
			return []string{experiments.FormatTable4(rows)}
		}},
		"alarm": {methods: experiments.Methods(cfg, all...), source: experiments.AlarmSource, render: func(rows []archive.Outcome) []string {
			return []string{experiments.FormatAlarmCase(rows, all)}
		}},
		"ablate": {methods: experiments.AblationMethods(cfg), render: func(rows []archive.Outcome) []string {
			return []string{experiments.FormatAblation(rows)}
		}},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, name := range runNames {
		start, r, c := time.Now(), runs[name], suite
		c.OutDir, c.Methods = filepath.Join(*out, name), r.methods
		if r.source != nil {
			c.Source, c.Datasets = r.source(*seed), nil
		}
		res, err := archive.Run(ctx, c)
		if err != nil {
			fatal(err)
		}
		if *deterministic {
			res = res.Deterministic()
		}
		rows, err := experiments.SourceOrder(c, res.Outcomes)
		if err != nil {
			fatal(err)
		}
		reports := []reportItem{}
		for _, row := range rows {
			if row.Report != nil {
				reports = append(reports, reportItem{row.Dataset, row.Method, row.Report})
			}
		}
		switch {
		case *asJSON:
			doc := struct {
				*archive.Result
				Reports []reportItem `json:"reports,omitempty"`
			}{Result: res}
			if *report == "json" {
				doc.Reports = reports
			}
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		case r.render == nil:
			if err := res.WriteTable(os.Stdout, *deterministic); err != nil {
				fatal(err)
			}
			if !*deterministic {
				fmt.Printf("\n%d dataset(s), %d resumed, config %s, wall %v\n",
					len(res.Outcomes), res.Resumed, res.ConfigHash, time.Since(start).Round(time.Millisecond))
			}
		default:
			for _, a := range r.render(rows) {
				fmt.Println(a)
			}
			for _, write := range r.svg {
				if *svgDir == "" {
					break
				}
				paths, err := write(*svgDir, rows)
				for _, p := range paths {
					progress("wrote " + p)
				}
				if err != nil {
					fatal(err)
				}
			}
		}
		switch {
		case *report == "text":
			for _, it := range reports {
				fmt.Printf("== %s / %s ==\n%s", it.Dataset, it.Method, it.Report)
			}
		case *report == "json" && !*asJSON:
			if err := enc.Encode(reports); err != nil {
				fatal(err)
			}
		}
	}
}

// reportItem is one RPM row's training report, labelled dataset / method.
type reportItem struct {
	Dataset string           `json:"dataset"`
	Method  string           `json:"method"`
	Report  *rpm.TrainReport `json:"report"`
}

// parseShard parses a "k/n" shard spec. Both halves must be whole
// integers: trailing text such as "1/4x" is rejected, not truncated.
func parseShard(s string) (k, n int, err error) {
	ks, ns, ok := strings.Cut(s, "/")
	k, errK := strconv.Atoi(ks)
	n, errN := strconv.Atoi(ns)
	if !ok || errK != nil || errN != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: want k/n, e.g. 0/4", s)
	}
	if n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= k < n", s)
	}
	return k, n, nil
}

// usage reports a flag error and exits 2, as the flag package does.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "rpmarchive:", err)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpmarchive:", err)
	os.Exit(1)
}
