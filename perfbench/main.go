// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload on the real public entry points — rpm.Train / Predict
// in-process, and the real cmd/rpmserved as a child process driven over
// loopback HTTP — checks every output it gets, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}.
//
// Usage (from the repository root, through the wrapper that builds the
// benchmark and the server first):
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer metrics. See perfbench/README.md for the
// metric → layer → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run produces: its metrics, the operations it
// attempted and how many of them failed (a non-200 response, a label
// that disagrees with the in-process reference, or a training error),
// and any correctness problem found beyond the per-operation checks.
type result struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	details   []string // context printed beside the metrics, not gated
}

func (r *result) detailf(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // rpmserved binary
	workdir  string // scratch directory for snapshots and logs
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: train, serve or stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer (traced) run, 0 = end-to-end run")
	flag.StringVar(&cfg.server, "server", ".bench_build/rpmserved", "rpmserved binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory (snapshots, server log)")
	flag.Parse()
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// Load comes from this one process: never more worker threads than
	// the machine has cores (GOMAXPROCS is already that by default).
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printEnv(cfg)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		res.checkComplete(perLayer)
	} else {
		res.checkComplete(endToEnd)
	}
	if !emit(os.Stdout, res) {
		os.Exit(1)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"train":  runTrain,
	"serve":  runServe,
	"stream": runStream,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// printEnv records the environment every run is measured in.
func printEnv(cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), commit)
}

// emit prints every metric by name with its unit, the operation counts,
// any correctness problem, and finally the one-line JSON result. It
// reports whether the run was correct.
func emit(w io.Writer, r *result) bool {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problemf("metric %s is not finite", n)
			m.Value = 0
			r.metrics[n] = m
		}
		fmt.Fprintf(w, "metric %-36s %16.6f %s\n", n, m.Value, m.Unit)
	}
	for _, d := range r.details {
		fmt.Fprintf(w, "detail %s\n", d)
	}
	fmt.Fprintf(w, "ops %d\nfailed_ops %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	correct := r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "%s\n", out)
	return correct
}

// deadline returns the time a phase given share of the run must end by.
func deadline(cfg config, share float64) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * share * float64(time.Second)))
}
