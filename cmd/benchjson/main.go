// Command benchjson turns `go test -bench` output into a stable JSON
// document and compares two such documents for performance regressions.
// It is the core of the repo's benchmark-regression gate (`make
// bench-gate`, see README "Benchmark gate"): a baseline BENCH_PR4.json
// is committed, CI re-runs the gate benchmarks, and a >25% ns/op
// regression on any gated benchmark fails the build.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./... | benchjson -o bench.json
//	benchjson -compare -max-regress 25 baseline.json current.json
//
// Parse mode reads benchmark result lines ("BenchmarkX-8  100  123 ns/op
// ...") from stdin (or a file argument), strips the trailing -GOMAXPROCS
// suffix so documents from machines with different core counts stay
// comparable, and aggregates repeated samples of the same benchmark
// (e.g. from -count=3) by taking the minimum ns/op — the least-noise
// estimate of the code's true cost.
//
// Compare mode loads two documents and fails (exit 1) when any
// benchmark present in the baseline is missing from the current run,
// its ns/op regressed by more than -max-regress percent, or its
// allocs/op rose at all. Allocation counts are deterministic, so they
// are gated exactly, with no tolerance; a current run that stops
// reporting allocs/op for a benchmark the baseline has them for fails
// too. Improvements and new benchmarks are reported but never fail the
// gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one benchmark's aggregated result.
type Bench struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (BenchmarkFoo-8 → BenchmarkFoo).
	Name string `json:"name"`
	// Pkg is the import path from the preceding "pkg:" line, when present.
	Pkg string `json:"pkg,omitempty"`
	// Samples is how many result lines were folded into this entry.
	Samples int `json:"samples"`
	// Iters is b.N of the selected (fastest) sample.
	Iters int64 `json:"iters"`
	// NsPerOp is the minimum ns/op across samples.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem (minimum across
	// samples; -1 when the benchmark did not report them).
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Doc is the JSON document benchjson emits and compares.
type Doc struct {
	Created    time.Time `json:"created"`
	GoVersion  string    `json:"go"`
	Benchmarks []Bench   `json:"benchmarks"`
}

func main() {
	var (
		compare    = flag.Bool("compare", false, "compare two benchjson documents: benchjson -compare baseline.json current.json")
		maxRegress = flag.Float64("max-regress", 25, "with -compare: fail when ns/op regresses by more than this percent")
		out        = flag.String("o", "", "parse mode: write JSON here instead of stdout")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: baseline.json current.json")
			os.Exit(2)
		}
		report, failed, err := compareFiles(flag.Arg(0), flag.Arg(1), *maxRegress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(report)
		if failed {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL: ns/op regression beyond %.0f%% or allocs/op increase (see above)\n", *maxRegress)
			os.Exit(1)
		}
		return
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "benchjson: parse mode takes at most one input file (default stdin)")
		os.Exit(2)
	}
	doc, err := parse(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines found in input")
		os.Exit(2)
	}
	enc, _ := json.MarshalIndent(doc, "", "  ")
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// cpuSuffix matches the trailing -GOMAXPROCS that `go test` appends to
// benchmark names (BenchmarkFoo-8, BenchmarkFoo/case-8).
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output and aggregates result lines into
// a Doc. Lines that are not benchmark results (goos/pkg/PASS/ok/log
// noise) are skipped; a malformed Benchmark line is an error so a
// truncated bench run cannot silently produce a hollow baseline.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Created: time.Now().UTC(), GoVersion: runtime.Version()}
	byName := map[string]*Bench{}
	var order []string
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "Name N value unit [value unit ...]"; the
		// bare "BenchmarkFoo" echo line (no fields beyond the name, or
		// no ns/op pair) is skipped.
		if len(fields) < 4 || len(fields)%2 != 0 {
			if len(fields) == 1 {
				continue // name echo before the result line
			}
			return nil, fmt.Errorf("malformed benchmark line: %q", line)
		}
		name := cpuSuffix.ReplaceAllString(fields[0], "")
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed iteration count in %q: %v", line, err)
		}
		ns, bytesOp, allocsOp := -1.0, -1.0, -1.0
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("malformed value in %q: %v", line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				ns = v
			case "B/op":
				bytesOp = v
			case "allocs/op":
				allocsOp = v
			}
		}
		if ns < 0 {
			return nil, fmt.Errorf("benchmark line without ns/op: %q", line)
		}
		b, ok := byName[name]
		if !ok {
			b = &Bench{Name: name, Pkg: pkg, Samples: 0, NsPerOp: ns, BytesPerOp: bytesOp, AllocsPerOp: allocsOp, Iters: iters}
			byName[name] = b
			order = append(order, name)
		}
		b.Samples++
		if ns < b.NsPerOp {
			b.NsPerOp = ns
			b.Iters = iters
		}
		if bytesOp >= 0 && (b.BytesPerOp < 0 || bytesOp < b.BytesPerOp) {
			b.BytesPerOp = bytesOp
		}
		if allocsOp >= 0 && (b.AllocsPerOp < 0 || allocsOp < b.AllocsPerOp) {
			b.AllocsPerOp = allocsOp
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range order {
		doc.Benchmarks = append(doc.Benchmarks, *byName[n])
	}
	return doc, nil
}

// compareFiles loads two documents and renders the regression report.
// The boolean result is true when the gate should fail.
func compareFiles(baselinePath, currentPath string, maxRegress float64) (string, bool, error) {
	baseline, err := loadDoc(baselinePath)
	if err != nil {
		return "", false, fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	current, err := loadDoc(currentPath)
	if err != nil {
		return "", false, fmt.Errorf("current %s: %w", currentPath, err)
	}
	return compareDocs(baseline, current, maxRegress)
}

func loadDoc(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	if len(d.Benchmarks) == 0 {
		return nil, fmt.Errorf("document has no benchmarks")
	}
	return &d, nil
}

// compareDocs walks the baseline benchmarks (sorted, for a stable
// report) and classifies each against the current run. Failures are
// ns/op regressions beyond maxRegress percent, any allocs/op increase,
// and benchmarks that vanished; everything else is informational.
func compareDocs(baseline, current *Doc, maxRegress float64) (string, bool, error) {
	cur := map[string]Bench{}
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	names := make([]string, 0, len(baseline.Benchmarks))
	base := map[string]Bench{}
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
		names = append(names, b.Name)
	}
	sort.Strings(names)

	var sb strings.Builder
	failed := false
	fmt.Fprintf(&sb, "benchmark gate: max allowed ns/op regression %.0f%%, no allocs/op increase\n", maxRegress)
	for _, name := range names {
		old, now := base[name], cur[name]
		if _, ok := cur[name]; !ok {
			failed = true
			fmt.Fprintf(&sb, "  FAIL  %-40s missing from current run (baseline %s)\n", name, fmtNs(old.NsPerOp))
			continue
		}
		delta := 0.0
		if old.NsPerOp > 0 {
			delta = (now.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		}
		allocsUp := old.AllocsPerOp >= 0 && (now.AllocsPerOp < 0 || now.AllocsPerOp > old.AllocsPerOp)
		status, allocsNote := "ok  ", ""
		if delta > maxRegress || allocsUp {
			status = "FAIL"
			failed = true
		}
		if allocsUp {
			allocsNote = " allocs/op increased"
		}
		fmt.Fprintf(&sb, "  %s  %-40s %12s → %12s  %+7.1f%%  (allocs %s → %s)%s\n",
			status, name, fmtNs(old.NsPerOp), fmtNs(now.NsPerOp), delta,
			fmtCount(old.AllocsPerOp), fmtCount(now.AllocsPerOp), allocsNote)
	}
	for name, b := range cur {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(&sb, "  new   %-40s %12s (not in baseline; add with `make bench-baseline`)\n", name, fmtNs(b.NsPerOp))
		}
	}
	return sb.String(), failed, nil
}

func fmtNs(ns float64) string {
	switch {
	case ns < 0:
		return "n/a"
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func fmtCount(v float64) string {
	if v < 0 {
		return "n/a"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}
