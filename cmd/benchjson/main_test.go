package main

import (
	"strings"
	"testing"
)

// sample mimics real `go test -bench -benchmem` output, including the
// speedup custom metric, name echo lines, per-package headers, repeated
// samples (-count=2), and trailing PASS/ok noise.
const sample = `goos: linux
goarch: amd64
pkg: rpm
cpu: Intel(R) Xeon(R)
BenchmarkRPMTrainFixed
BenchmarkRPMTrainFixed-4   	      13	  88123456 ns/op	 1234567 B/op	   12345 allocs/op
BenchmarkRPMTrainFixed-4   	      14	  86000000 ns/op	 1234500 B/op	   12345 allocs/op
BenchmarkRPMPredict-4      	   20000	     52000 ns/op	    4096 B/op	      12 allocs/op
PASS
ok  	rpm	12.3s
pkg: rpm/internal/core
BenchmarkTransformParallel-4 	     100	   1234567 ns/op	         3.21 speedup
ok  	rpm/internal/core	2.1s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	train := doc.Benchmarks[0]
	if train.Name != "BenchmarkRPMTrainFixed" {
		t.Fatalf("cpu suffix not stripped: %q", train.Name)
	}
	if train.Pkg != "rpm" {
		t.Fatalf("pkg = %q, want rpm", train.Pkg)
	}
	if train.Samples != 2 || train.NsPerOp != 86000000 {
		t.Fatalf("sample aggregation must keep the min ns/op: %+v", train)
	}
	if train.AllocsPerOp != 12345 || train.BytesPerOp != 1234500 {
		t.Fatalf("benchmem fields wrong: %+v", train)
	}
	tp := doc.Benchmarks[2]
	if tp.Name != "BenchmarkTransformParallel" || tp.Pkg != "rpm/internal/core" {
		t.Fatalf("per-package header not tracked: %+v", tp)
	}
	if tp.NsPerOp != 1234567 {
		t.Fatalf("speedup metric confused the ns/op parse: %+v", tp)
	}
	if tp.AllocsPerOp != -1 {
		t.Fatalf("missing -benchmem must record -1 allocs, got %v", tp.AllocsPerOp)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX-4\t100\tns/op\n",          // value missing
		"BenchmarkX-4 100 12e ns/op\n",        // unparsable value
		"BenchmarkX-4 100 7 B/op 3 allocs/op", // no ns/op at all
	} {
		if _, err := parse(strings.NewReader(bad)); err == nil {
			t.Errorf("parse(%q) accepted malformed input", bad)
		}
	}
}

func docOf(benches ...Bench) *Doc { return &Doc{Benchmarks: benches} }

func TestCompareWithinBudgetPasses(t *testing.T) {
	base := docOf(Bench{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 10})
	cur := docOf(Bench{Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 10})
	report, failed, err := compareDocs(base, cur, 25)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("+20%% within a 25%% budget must pass:\n%s", report)
	}
	if !strings.Contains(report, "+20.0%") {
		t.Fatalf("report must show the delta:\n%s", report)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := docOf(Bench{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 10})
	cur := docOf(Bench{Name: "BenchmarkA", NsPerOp: 2000, AllocsPerOp: 10}) // 2x slowdown
	report, failed, err := compareDocs(base, cur, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("2x slowdown must fail a 25%% gate:\n%s", report)
	}
	if !strings.Contains(report, "FAIL") || !strings.Contains(report, "+100.0%") {
		t.Fatalf("report must flag the regression:\n%s", report)
	}
}

func TestCompareMissingBenchFails(t *testing.T) {
	base := docOf(
		Bench{Name: "BenchmarkA", NsPerOp: 1000},
		Bench{Name: "BenchmarkGone", NsPerOp: 500},
	)
	cur := docOf(Bench{Name: "BenchmarkA", NsPerOp: 900})
	report, failed, err := compareDocs(base, cur, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("a vanished baseline benchmark must fail the gate:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkGone") || !strings.Contains(report, "missing") {
		t.Fatalf("report must name the missing benchmark:\n%s", report)
	}
}

func TestCompareNewBenchInformational(t *testing.T) {
	base := docOf(Bench{Name: "BenchmarkA", NsPerOp: 1000})
	cur := docOf(
		Bench{Name: "BenchmarkA", NsPerOp: 1000},
		Bench{Name: "BenchmarkNew", NsPerOp: 5},
	)
	report, failed, err := compareDocs(base, cur, 25)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("a new benchmark must not fail the gate:\n%s", report)
	}
	if !strings.Contains(report, "new") || !strings.Contains(report, "BenchmarkNew") {
		t.Fatalf("report should mention the new benchmark:\n%s", report)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	base := docOf(Bench{Name: "BenchmarkA", NsPerOp: 1000})
	cur := docOf(Bench{Name: "BenchmarkA", NsPerOp: 100}) // 10x faster
	_, failed, err := compareDocs(base, cur, 25)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("an improvement must never fail the gate")
	}
}

// TestCompareAllocsGate: allocs/op is gated exactly — any increase fails,
// even with ns/op well inside the budget, and so does a current run that
// stops reporting allocs/op the baseline has.
func TestCompareAllocsGate(t *testing.T) {
	for _, tc := range []struct {
		name      string
		old, now  float64
		wantFail  bool
		wantInRpt string
	}{
		{"equal", 10, 10, false, "(allocs 10 → 10)"},
		{"decrease", 10, 9, false, "(allocs 10 → 9)"},
		{"zero stays zero", 0, 0, false, "(allocs 0 → 0)"},
		{"increase by one", 10, 11, true, "allocs/op increased"},
		{"zero to one", 0, 1, true, "allocs/op increased"},
		{"fractional increase", 2, 2.01, true, "allocs/op increased"},
		{"no longer reported", 10, -1, true, "allocs/op increased"},
		{"baseline unreported", -1, 40, false, "(allocs n/a → 40)"},
	} {
		base := docOf(Bench{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: tc.old})
		cur := docOf(Bench{Name: "BenchmarkA", NsPerOp: 900, AllocsPerOp: tc.now})
		report, failed, err := compareDocs(base, cur, 25)
		if err != nil {
			t.Fatal(err)
		}
		if failed != tc.wantFail {
			t.Errorf("%s: failed = %v, want %v:\n%s", tc.name, failed, tc.wantFail, report)
		}
		if !strings.Contains(report, tc.wantInRpt) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.wantInRpt, report)
		}
	}
}
