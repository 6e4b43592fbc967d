// Command abstat summarizes a same-machine A/B of the repository
// benchmark (scripts/ab.sh). Its inputs are two files of perfbench
// result lines, the JSON object perfbench prints last, one line per
// run; line i of the base file and line i of the change file are one
// pair.
//
// Usage:
//
//	abstat [-bench BENCHMARK.json] base.jsonl change.jsonl
//
// For every metric both sides report, it prints each side's median and
// interquartile range (nearest-rank quartiles, so every figure is a
// measured run), the change of the median, and the pairs the change won
// (ties count for neither side). The better direction and the
// end-to-end bounds come from BENCHMARK.json. Each end-to-end metric
// also gets a verdict:
//
//   - gain: the change won at least nine tenths of the pairs and its
//     median beats the base's by more than the base's IQR;
//   - worse: its median is worse than the base's by more than the bound;
//   - unresolved: either side's IQR exceeds the bound (relative to the
//     base median), unless every change run beats every base run;
//   - within: none of the above.
//
// It exits 1 when a side's runs failed a correctness check, and 2 on
// bad input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// run is one perfbench result line.
type run struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// spec is one metric of BENCHMARK.json.
type spec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmark struct {
	EndToEnd []spec `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark declaration with each metric's better direction and bound")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: abstat [-bench BENCHMARK.json] base.jsonl change.jsonl")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fatal(err)
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		fatal(fmt.Errorf("%s: %w", *benchPath, err))
	}
	base, err := readRuns(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	change, err := readRuns(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if len(base) != len(change) || len(base) == 0 {
		fatal(fmt.Errorf("%d base runs and %d change runs: want the same positive number of pairs", len(base), len(change)))
	}
	if !report(os.Stdout, b, base, change) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abstat:", err)
	os.Exit(2)
}

// readRuns reads one perfbench result per non-empty line.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quartiles returns the nearest-rank 0.25, 0.5 and 0.75 quantiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		return s[max(i, 0)]
	}
	return at(0.25), at(0.5), at(0.75)
}

// row is one metric's comparison.
type row struct {
	better                  string // "higher", "lower" or "" when unknown
	bound                   float64
	pairs, wins             int
	allBetter               bool // every change run beats every base run
	baseQ1, baseMed, baseQ3 float64
	chgQ1, chgMed, chgQ3    float64
}

// gain reports whether d is an improvement in the metric's direction.
func (r *row) gain(d float64) bool {
	return (r.better == "higher" && d > 0) || (r.better == "lower" && d < 0)
}

func (r *row) verdict() string {
	diff := r.chgMed - r.baseMed
	rel := 0.0
	if r.baseMed != 0 {
		rel = diff / math.Abs(r.baseMed)
	}
	switch {
	case r.gain(diff) && 10*r.wins >= 9*r.pairs && math.Abs(diff) > r.baseQ3-r.baseQ1:
		return "gain"
	case !r.gain(diff) && math.Abs(rel) > r.bound:
		return "worse"
	case r.allBetter:
		return "within"
	case r.baseMed != 0 && math.Max(r.baseQ3-r.baseQ1, r.chgQ3-r.chgQ1)/math.Abs(r.baseMed) > r.bound:
		return "unresolved"
	}
	return "within"
}

// report prints the comparison table and reports whether every run of
// both sides was correct.
func report(w io.Writer, b benchmark, base, change []run) bool {
	specs := map[string]spec{}
	var order []string
	endToEnd := map[string]bool{}
	for _, s := range b.EndToEnd {
		specs[s.Name], endToEnd[s.Name] = s, true
		order = append(order, s.Name)
	}
	for _, s := range b.PerLayer {
		specs[s.Name] = s
	}
	var rest []string
	for name := range base[0].Metrics {
		if !endToEnd[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	order = append(order, rest...)

	ok := true
	for _, side := range []struct {
		name string
		runs []run
	}{{"base", base}, {"change", change}} {
		var attempted, failed int64
		incorrect := 0
		for _, r := range side.runs {
			attempted += r.Attempted
			failed += r.Failed
			if !r.Correct {
				incorrect++
			}
		}
		ok = ok && incorrect == 0
		fmt.Fprintf(w, "%-6s runs=%d incorrect=%d failed_ops=%d/%d\n", side.name, len(side.runs), incorrect, failed, attempted)
	}
	fmt.Fprintf(w, "%-36s %14s %12s %14s %12s %8s %6s %s\n", "metric", "base_median", "base_iqr", "change_median", "change_iqr", "delta", "wins", "verdict")
	for _, name := range order {
		r, present := compare(name, specs[name], base, change)
		if !present {
			continue
		}
		delta, wins, verdict := "-", "-", ""
		if r.baseMed != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.chgMed-r.baseMed)/math.Abs(r.baseMed))
		}
		if r.better != "" {
			wins = fmt.Sprintf("%d/%d", r.wins, r.pairs)
		}
		if endToEnd[name] {
			verdict = r.verdict()
		}
		fmt.Fprintf(w, "%-36s %14.6g %12.4g %14.6g %12.4g %8s %6s %s\n",
			name, r.baseMed, r.baseQ3-r.baseQ1, r.chgMed, r.chgQ3-r.chgQ1, delta, wins, verdict)
	}
	return ok
}

// compare builds the row of one metric, or reports it absent when a run
// of either side lacks it.
func compare(name string, s spec, base, change []run) (row, bool) {
	r := row{better: s.Better, bound: s.Bound, pairs: len(base), allBetter: true}
	var bv, cv []float64
	for i := range base {
		bm, ok1 := base[i].Metrics[name]
		cm, ok2 := change[i].Metrics[name]
		if !ok1 || !ok2 {
			return r, false
		}
		bv, cv = append(bv, bm.Value), append(cv, cm.Value)
		if r.gain(cm.Value - bm.Value) {
			r.wins++
		}
	}
	for _, c := range cv {
		for _, b := range bv {
			r.allBetter = r.allBetter && r.gain(c-b)
		}
	}
	r.baseQ1, r.baseMed, r.baseQ3 = quartiles(bv)
	r.chgQ1, r.chgMed, r.chgQ3 = quartiles(cv)
	return r, true
}
