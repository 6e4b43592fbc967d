// Command rpmarchive runs the resumable sharded archive evaluation
// (DESIGN.md §15): it trains and evaluates an RPM classifier — or a
// sampled bagged ensemble — on every dataset of an archive,
// checkpointing each finished dataset atomically so a killed run
// resumes exactly where it stopped, and emits a correctness+efficiency
// table as text or JSON.
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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rpm"
	"rpm/internal/experiments/archive"
)

func main() {
	out := flag.String("out", "", "checkpoint/output directory (required)")
	dir := flag.String("dir", "", "read UCR-layout datasets from this directory instead of generating the synthetic suite")
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default: all)")
	seed := flag.Int64("seed", 1, "run seed: synthetic data generation and training")
	workers := flag.Int("workers", 0, "dataset-level fan-out (0 = all cores); never changes results")
	shard := flag.String("shard", "", "shard spec k/n: this run takes every n-th dataset starting at k")
	timeout := flag.Duration("timeout", 0, "per-dataset train+evaluate budget (0 = unbounded)")
	mode := flag.String("mode", "direct", "SAX parameter search: direct, grid, or fixed")
	window := flag.Int("window", 0, "fixed SAX window (mode=fixed; 0 = heuristic)")
	paa := flag.Int("paa", 0, "fixed PAA size (mode=fixed)")
	alpha := flag.Int("alpha", 0, "fixed alphabet size (mode=fixed)")
	sampleRate := flag.Float64("sample-rate", 0, "candidate-pool sampling rate in (0,1); 0 = exhaustive")
	sampleSeed := flag.Int64("sample-seed", 0, "sampling seed (0 = derive from -seed)")
	bags := flag.Int("bags", 0, "bagged-ensemble width (>1 requires -sample-rate)")
	resume := flag.Bool("resume", false, "serve datasets with valid checkpoints from disk")
	force := flag.Bool("force", false, "retrain everything, overwriting checkpoints (the default; negates -resume)")
	asJSON := flag.Bool("json", false, "emit the result as JSON instead of a text table")
	deterministic := flag.Bool("deterministic", false, "strip wall times and resume marks so outputs of identical configs compare byte for byte")
	strict := flag.Bool("strict", false, "exit non-zero on any dataset failure or corrupt checkpoint")
	flag.Parse()

	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}

	cfg := archive.Config{
		OutDir:  *out,
		Seed:    *seed,
		Workers: *workers,
		Timeout: *timeout,
		Resume:  *resume && !*force,
		Strict:  *strict,
	}
	if *datasets != "" {
		for _, n := range strings.Split(*datasets, ",") {
			if n = strings.TrimSpace(n); n != "" {
				cfg.Datasets = append(cfg.Datasets, n)
			}
		}
	}
	if *dir != "" {
		cfg.Source = archive.DirSource{Dir: *dir}
	} else {
		cfg.Source = archive.SyntheticSource{Seed: *seed}
	}
	if *shard != "" {
		k, n, err := parseShard(*shard)
		if err != nil {
			fatal(err)
		}
		cfg.Shard, cfg.Shards = k, n
	}

	opts := rpm.DefaultOptions()
	opts.Seed = *seed
	switch *mode {
	case "direct":
		opts.Mode = rpm.ParamDIRECT
	case "grid":
		opts.Mode = rpm.ParamGrid
	case "fixed":
		opts.Mode = rpm.ParamFixed
		opts.Params = rpm.SAXParams{Window: *window, PAA: *paa, Alphabet: *alpha}
	default:
		fatal(fmt.Errorf("unknown -mode %q (direct, grid, fixed)", *mode))
	}
	opts.Sample = rpm.SampleOptions{Rate: *sampleRate, Seed: *sampleSeed}
	opts.Bags = *bags
	cfg.Methods = []archive.Method{archive.RPM(opts)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := archive.Run(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	if *deterministic {
		res = res.Deterministic()
	}
	if *asJSON {
		blob, err := res.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(blob)
	} else {
		if err := res.WriteTable(os.Stdout, *deterministic); err != nil {
			fatal(err)
		}
		if !*deterministic {
			fmt.Printf("\n%d dataset(s), %d resumed, config %s, wall %v\n",
				len(res.Outcomes), res.Resumed, res.ConfigHash, time.Since(start).Round(time.Millisecond))
		}
	}
}

// parseShard parses a "k/n" shard spec.
func parseShard(s string) (k, n int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &k, &n); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: want k/n, e.g. 0/4", s)
	}
	if n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= k < n", s)
	}
	return k, n, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpmarchive:", err)
	os.Exit(1)
}
