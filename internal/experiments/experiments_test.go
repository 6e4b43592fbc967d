package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"rpm"
	"rpm/internal/experiments/archive"
)

// quickCfg runs the smallest useful configuration.
var quickCfg = Config{Seed: 1, Quick: true}

// runRows runs cfg through the archive runner in strict mode (the first
// failed row fails the run), checkpointing into a test directory, and
// returns the rows in source order.
func runRows(ctx context.Context, t *testing.T, cfg archive.Config) ([]archive.Outcome, error) {
	t.Helper()
	cfg.OutDir, cfg.Strict = t.TempDir(), true
	res, err := archive.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return SourceOrder(cfg, res.Outcomes)
}

// evaluate runs methods on the named synthetic datasets (seed 1).
func evaluate(t *testing.T, workers int, methods []archive.Method, datasets ...string) []archive.Outcome {
	t.Helper()
	rows, err := runRows(context.Background(), t, archive.Config{
		Source:   archive.SyntheticSource{Seed: 1},
		Seed:     1,
		Workers:  workers,
		Datasets: datasets,
		Methods:  methods,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// row is a synthetic runner row with the given error rate and seconds.
func row(dataset, method string, errRate, secs float64) archive.Outcome {
	const n = 1000
	return archive.Outcome{
		Dataset: dataset, Method: method, Status: "ok", TestSize: n,
		Accuracy:    float64(n-int(math.Round(errRate*n))) / n,
		TrainMillis: 1000 * secs,
	}
}

// TestGolden pins the worker-independent text of Table 1 and Fig. 7
// (-quick, SynItalyPower and SynGunPoint), the Fig. 9 error rows and the
// ablation Error and #Patterns columns (SynItalyPower) to the output of
// the per-experiment runners this package had before every experiment
// went through the archive runner.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg := Config{Seed: 1, Quick: true, Workers: workers}
		var b strings.Builder
		suite := evaluate(t, workers, Methods(cfg, AllMethods()...), "SynItalyPower", "SynGunPoint")
		b.WriteString(FormatTable1(suite, AllMethods()))
		b.WriteString(FormatFig7(suite, AllMethods()))
		for _, line := range strings.SplitAfter(FormatFig9(evaluate(t, workers, TauMethods(cfg), "SynItalyPower")), "\n") {
			if !strings.HasPrefix(line, "  time:") {
				b.WriteString(line)
			}
		}
		b.WriteString("\nAblation (error, #patterns)\n")
		for _, r := range evaluate(t, workers, AblationMethods(cfg), "SynItalyPower") {
			fmt.Fprintf(&b, "%s %s %.3f %d\n", r.Dataset, r.Method, r.ErrorRate(), r.Patterns)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("workers=%d: output differs from testdata/golden.txt:\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}

func TestRunDatasetAllMethods(t *testing.T) {
	rows := evaluate(t, 0, Methods(quickCfg, AllMethods()...), "SynItalyPower")
	if len(rows) != len(AllMethods()) {
		t.Fatalf("got %d method rows", len(rows))
	}
	for i, r := range rows {
		if r.Method != AllMethods()[i] {
			t.Errorf("row %d is %s, want %s", i, r.Method, AllMethods()[i])
		}
		if e := r.ErrorRate(); e < 0 || e > 1 {
			t.Errorf("%s error = %v", r.Method, e)
		}
		if r.TrainMillis <= 0 {
			t.Errorf("%s train time = %v", r.Method, r.TrainMillis)
		}
	}
}

func TestRunSuiteSubsetAndTables(t *testing.T) {
	var lines []string
	rows, err := runRows(context.Background(), t, archive.Config{
		Source:   archive.SyntheticSource{Seed: 1},
		Seed:     1,
		Datasets: []string{"SynItalyPower", "SynECGFiveDays"},
		Methods:  Methods(quickCfg, AllMethods()...),
		Progress: func(s string) { lines = append(lines, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(AllMethods()) || len(lines) != 2 {
		t.Fatalf("rows %d, progress %d", len(rows), len(lines))
	}
	if rows[0].Dataset != "SynItalyPower" {
		t.Fatalf("rows start with %s, want the requested order", rows[0].Dataset)
	}
	t1 := FormatTable1(rows, AllMethods())
	if !strings.Contains(t1, "SynItalyPower") || !strings.Contains(t1, "# of best") || !strings.Contains(t1, "Wilcoxon") {
		t.Errorf("Table1 malformed:\n%s", t1)
	}
	t2 := FormatTable2(rows)
	if !strings.Contains(t2, "running time") || !strings.Contains(t2, "RPM") {
		t.Errorf("Table2 malformed:\n%s", t2)
	}
	f7 := FormatFig7(rows, AllMethods())
	if !strings.Contains(f7, "RPM vs NN-ED") || !strings.Contains(f7, "summary") {
		t.Errorf("Fig7 malformed:\n%s", f7)
	}
	f8 := FormatFig8(rows)
	if !strings.Contains(f8, "LS (x) vs RPM (y)") {
		t.Errorf("Fig8 malformed:\n%s", f8)
	}
}

func TestRunDatasetUnknownMethod(t *testing.T) {
	_, err := runRows(context.Background(), t, archive.Config{
		Source:   archive.SyntheticSource{Seed: 1},
		Datasets: []string{"SynItalyPower"},
		Methods:  Methods(quickCfg, "nope"),
	})
	if !errors.Is(err, archive.ErrRunFailed) || !strings.Contains(err.Error(), `unknown method "nope"`) {
		t.Errorf("err = %v, want a failed run naming the unknown method", err)
	}
}

func TestRunSuiteUnknownDataset(t *testing.T) {
	_, err := runRows(context.Background(), t, archive.Config{
		Source:   archive.SyntheticSource{Seed: 1},
		Datasets: []string{"nope"},
		Methods:  Methods(quickCfg, MethodNNED),
	})
	if !errors.Is(err, archive.ErrBadConfig) {
		t.Errorf("err = %v, want ErrBadConfig for an unknown dataset", err)
	}
}

func TestBestCounts(t *testing.T) {
	rows := []archive.Outcome{
		row("a", "x", 0.1, 0), row("a", "y", 0.2, 0),
		row("b", "x", 0.3, 0), row("b", "y", 0.3, 0),
	}
	counts := BestCounts(rows, []string{"x", "y"}, ErrMetric)
	if counts["x"] != 2 || counts["y"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

// requireReports asserts every row of an RPM-only run carries its own
// training report and the pipeline counters taken from it.
func requireReports(t *testing.T, rows []archive.Outcome) {
	t.Helper()
	for _, r := range rows {
		if r.Report == nil || r.Counters[rpm.CounterCandidates] <= 0 {
			t.Errorf("%s/%s: report %v, counters %v", r.Dataset, r.Method, r.Report, r.Counters)
		}
	}
}

func TestTauSweepAndTables(t *testing.T) {
	rows := evaluate(t, 0, TauMethods(quickCfg), "SynItalyPower")
	if len(rows) != len(TauPercentiles) {
		t.Fatalf("sweep shape: %+v", rows)
	}
	requireReports(t, rows)
	t3 := FormatTable3(rows)
	if !strings.Contains(t3, "Running Time Change") || !strings.Contains(t3, "10%-30%") {
		t.Errorf("Table3 malformed:\n%s", t3)
	}
	f9 := FormatFig9(rows)
	if !strings.Contains(f9, "SynItalyPower") || !strings.Contains(f9, "error:") {
		t.Errorf("Fig9 malformed:\n%s", f9)
	}
}

// TestTauMethodsCancel asserts a canceled context stops a τ-variant run:
// each τ method's training honors it, and so does the runner.
func TestTauMethodsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	split := rpm.GenerateDataset("SynItalyPower", 1)
	for _, m := range TauMethods(quickCfg) {
		if _, err := m.Train(ctx, split.Train); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", m.Name, err)
		}
	}
	_, err := runRows(ctx, t, archive.Config{
		Source:   archive.SyntheticSource{Seed: 1},
		Datasets: []string{"SynItalyPower"},
		Methods:  TauMethods(quickCfg),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled τ run err = %v, want context.Canceled", err)
	}
}

func TestRotateDatasetPreservesShapeAndLabels(t *testing.T) {
	d := rpm.GenerateDataset("SynGunPoint", 1).Test[:10]
	orig := make([][]float64, len(d))
	for i := range d {
		orig[i] = append([]float64(nil), d[i].Values...)
	}
	rot := RotateDataset(d, newRand(3))
	if len(rot) != len(d) {
		t.Fatal("length changed")
	}
	changed := 0
	for i := range d {
		if rot[i].Label != d[i].Label {
			t.Fatal("label changed")
		}
		if len(rot[i].Values) != len(d[i].Values) {
			t.Fatal("series length changed")
		}
		if rot[i].Values[0] != d[i].Values[0] {
			changed++
		}
		// rotation preserves the multiset of values: compare sums
		var sa, sb float64
		for j := range d[i].Values {
			sa += d[i].Values[j]
			sb += rot[i].Values[j]
			if d[i].Values[j] != orig[i][j] {
				t.Fatal("rotation modified the input")
			}
		}
		if diff := sa - sb; diff > 1e-9 || diff < -1e-9 {
			t.Fatal("rotation changed the value multiset")
		}
	}
	if changed == 0 {
		t.Error("no series was actually rotated")
	}
}

func TestAlarmCase(t *testing.T) {
	methods := []string{MethodNNED, MethodRPM}
	rows, err := runRows(context.Background(), t, archive.Config{
		Source:  AlarmSource(1),
		Seed:    1,
		Methods: Methods(quickCfg, methods...),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rpmErr := rows[1].ErrorRate(); rows[1].Method != MethodRPM || rpmErr > 0.35 {
		t.Errorf("RPM alarm row %s error = %v", rows[1].Method, rpmErr)
	}
	out := FormatAlarmCase(rows, methods)
	if !strings.Contains(out, "alarm") || !strings.Contains(out, "RPM") {
		t.Errorf("alarm report malformed:\n%s", out)
	}
}

// TestTable4SmallRun runs the rotation source with the Table 4 method
// list on one dataset. The errors are the SynGunPoint row of
// `rpmarchive -exp rotation -quick`, so the rotations and the
// rotation-invariant RPM are pinned too.
func TestTable4SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("rotation study is slow")
	}
	rows, err := runRows(context.Background(), t, archive.Config{
		Source:   RotationSource(1),
		Seed:     1,
		Datasets: []string{"SynGunPoint"},
		Methods:  RotationMethods(quickCfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{MethodNNED: "0.520", MethodNNDTWB: "0.493", MethodSAXVSM: "0.007", MethodLS: "0.000", MethodRPM: "0.000"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if got := fmt.Sprintf("%.3f", r.ErrorRate()); got != want[r.Method] {
			t.Errorf("%s error on rotated SynGunPoint = %s, want %s", r.Method, got, want[r.Method])
		}
	}
	out := FormatTable4(rows)
	if !strings.Contains(out, "SynGunPoint") || !strings.Contains(out, "rotated") {
		t.Errorf("Table4 malformed:\n%s", out)
	}
}

// TestFormatFailedRows asserts a failed or timed-out row, which has
// accuracy 0 and times 0, is not read as a result: its cells render as
// "-" and it never counts toward "# of best".
func TestFormatFailedRows(t *testing.T) {
	failed := func(dataset, method, status string) archive.Outcome {
		return archive.Outcome{Dataset: dataset, Method: method, Status: status, TestSize: 1000}
	}
	methods := []string{MethodLS, MethodFS, MethodRPM}
	rows := []archive.Outcome{
		row("a", MethodLS, 0.2, 3), failed("a", MethodFS, "error"), row("a", MethodRPM, 0.1, 1),
		row("b", MethodLS, 0.3, 2), row("b", MethodFS, 0.3, 4), failed("b", MethodRPM, "timeout"),
	}
	for _, tc := range []struct{ name, got, want string }{
		{"Table 1", FormatTable1(rows, methods), `Table 1: classification error rates (synthetic UCR-style suite)
Dataset                 LS      FS      RPM
a                       0.200   -       0.100*
b                       0.300*  0.300*  -
# of best (incl. ties)  1       1       1
`},
		{"Table 2", FormatTable2(rows), `Table 2: running time in seconds (train + classify)
Dataset              LS     FS    RPM
a                    3.00   -     1.00*
b                    2.00*  4.00  -
# best (incl. ties)  1      0     1
`},
		{"ablation", FormatAblation([]archive.Outcome{row("a", "default", 0.2, 3), failed("a", "medoid", "error"), failed("a", "gamma-0.1", "timeout")}), `Ablation study: RPM design choices (error / seconds / #patterns)
Dataset  Variant    Error  Time (s)  #Patterns
a        default    0.200  3.00      0
a        medoid     -      -         -
a        gamma-0.1  -      -         -
`},
	} {
		if !strings.HasPrefix(tc.got, tc.want) {
			t.Errorf("%s:\n%s\n--- want prefix ---\n%s", tc.name, tc.got, tc.want)
		}
	}
}

func TestPairedErrorsAlignment(t *testing.T) {
	rows := []archive.Outcome{row("a", "x", 0.1, 0), row("a", "y", 0.2, 0), row("b", "x", 0.3, 0)}
	va, vb, names := PairedErrors(rows, "x", "y")
	if len(va) != 1 || len(vb) != 1 || names[0] != "a" {
		t.Errorf("pairing: %v %v %v", va, vb, names)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestRotationShapeReproduces asserts the paper's Table 4 headline: on
// rotated test data the global NN baseline degrades drastically while
// rotation-invariant RPM stays accurate.
func TestRotationShapeReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end rotation study")
	}
	split := rpm.GenerateDataset("SynGunPoint", 3)
	rotated := RotateDataset(split.Test, newRand(9))
	methods := RotationMethods(Config{Seed: 3, Quick: true})
	errRate := func(m archive.Method) float64 {
		ctx := context.Background()
		model, err := m.Train(ctx, split.Train)
		if err != nil {
			t.Fatal(err)
		}
		preds, err := model.Predict(ctx, rotated)
		if err != nil {
			t.Fatal(err)
		}
		wrong := 0
		for i, in := range rotated {
			if preds[i] != in.Label {
				wrong++
			}
		}
		return float64(wrong) / float64(len(rotated))
	}
	eNN, eRPM := errRate(methods[0]), errRate(methods[len(methods)-1])
	if eNN < 0.2 {
		t.Errorf("NN-ED error on rotated data = %v; rotation not disruptive enough", eNN)
	}
	if eRPM > eNN/2 {
		t.Errorf("rotation-invariant RPM (%v) not clearly better than NN-ED (%v)", eRPM, eNN)
	}
}

func TestAblationRunAndFormat(t *testing.T) {
	methods := AblationMethods(quickCfg)
	rows := evaluate(t, 0, methods, "SynItalyPower")
	if len(rows) != len(methods) {
		t.Fatalf("got %d rows, want %d", len(rows), len(methods))
	}
	requireReports(t, rows)
	for i, r := range rows {
		if e := r.ErrorRate(); e < 0 || e > 1 {
			t.Errorf("%s: error %v", r.Method, e)
		}
		if r.Method != methods[i].Name || r.Patterns == 0 {
			t.Errorf("row %d: variant %s with %d patterns", i, r.Method, r.Patterns)
		}
	}
	out := FormatAblation(rows)
	if !strings.Contains(out, "default") || !strings.Contains(out, "#Patterns") {
		t.Errorf("ablation format:\n%s", out)
	}
}
