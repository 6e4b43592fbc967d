package archive

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rpm"
	"rpm/internal/obs"
	"rpm/internal/stats"
)

// smokeDatasets is the 3-dataset mini-archive the tests (and the CI
// archive-smoke gate) run over: small synthetic splits that train in
// well under a second each.
var smokeDatasets = []string{"SynCoffee", "SynECGFiveDays", "SynItalyPower"}

// testOptions are fixed SAX parameters (no search), which keep each
// dataset cheap.
func testOptions() rpm.Options {
	opts := rpm.DefaultOptions()
	opts.Mode = rpm.ParamFixed
	opts.Params = rpm.SAXParams{Window: 12, PAA: 4, Alphabet: 4}
	return opts
}

// testConfig returns a fast archive configuration over the mini
// archive with the RPM method on testOptions.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		OutDir:  t.TempDir(),
		Source:  SyntheticSource{Seed: 3, Subset: smokeDatasets},
		Seed:    3,
		Workers: 2,
		Methods: []Method{RPM(testOptions())},
	}
}

func mustHash(t *testing.T, cfg Config) string {
	t.Helper()
	h, err := cfg.hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func detJSON(t *testing.T, r *Result) []byte {
	t.Helper()
	blob, err := r.Deterministic().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRunEndToEnd covers the happy path: every dataset trains, scores
// reasonably, writes a checkpoint, and lands in the table in sorted
// order.
func TestRunEndToEnd(t *testing.T) {
	cfg := testConfig(t)
	res := mustRun(t, cfg)
	if len(res.Outcomes) != len(smokeDatasets) {
		t.Fatalf("got %d outcomes, want %d", len(res.Outcomes), len(smokeDatasets))
	}
	for i, oc := range res.Outcomes {
		if oc.Dataset != smokeDatasets[i] {
			t.Fatalf("outcome %d is %s, want sorted order %v", i, oc.Dataset, smokeDatasets)
		}
		if oc.Status != "ok" {
			t.Fatalf("%s: status %s (%s: %s)", oc.Dataset, oc.Status, oc.ErrKind, oc.ErrMsg)
		}
		if oc.Accuracy < 0.5 {
			t.Errorf("%s: accuracy %v suspiciously low", oc.Dataset, oc.Accuracy)
		}
		if oc.TrainSize == 0 || oc.TestSize == 0 || oc.Bags != 1 {
			t.Errorf("%s: incomplete row %+v", oc.Dataset, oc)
		}
		if oc.Counters["train.candidates"] <= 0 {
			t.Errorf("%s: missing candidates counter", oc.Dataset)
		}
		if _, err := os.Stat(CheckpointPath(cfg.OutDir, oc.Dataset)); err != nil {
			t.Errorf("%s: no checkpoint: %v", oc.Dataset, err)
		}
	}
	var tbl bytes.Buffer
	if err := res.WriteTable(&tbl, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "SynCoffee") || !strings.Contains(tbl.String(), "DATASET") {
		t.Fatalf("table missing expected content:\n%s", tbl.String())
	}
}

// TestRunWorkerIndependence asserts the deterministic projection is
// byte-identical between a sequential and a fanned-out run — the
// archive-level extension of the library's Workers guarantee.
func TestRunWorkerIndependence(t *testing.T) {
	a := testConfig(t)
	a.Workers = 1
	b := testConfig(t)
	b.Workers = 4
	if got, want := detJSON(t, mustRun(t, a)), detJSON(t, mustRun(t, b)); !bytes.Equal(got, want) {
		t.Fatalf("deterministic tables diverge between Workers 1 and 4:\n%s\n---\n%s", got, want)
	}
}

// TestResumeByteIdentity is the crash-resume contract: run, delete one
// checkpoint (simulating a dataset the killed run never finished),
// resume, and require the deterministic table byte-identical to the
// uninterrupted run — with only the still-checkpointed datasets served
// from disk.
func TestResumeByteIdentity(t *testing.T) {
	cfg := testConfig(t)
	full := mustRun(t, cfg)
	want := detJSON(t, full)

	if err := os.Remove(CheckpointPath(cfg.OutDir, "SynECGFiveDays")); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	resumed := mustRun(t, cfg)
	if resumed.Resumed != 2 {
		t.Fatalf("resumed %d datasets, want 2", resumed.Resumed)
	}
	if got := detJSON(t, resumed); !bytes.Equal(got, want) {
		t.Fatalf("resumed table differs from uninterrupted run:\n%s\n---\n%s", got, want)
	}
	// A second resume serves everything from checkpoints.
	again := mustRun(t, cfg)
	if again.Resumed != 3 {
		t.Fatalf("full resume served %d from checkpoints, want 3", again.Resumed)
	}
	if got := detJSON(t, again); !bytes.Equal(got, want) {
		t.Fatal("fully resumed table differs from uninterrupted run")
	}
}

// TestResumeRejectsCorruptCheckpoint asserts byte verification: a
// flipped payload byte fails the SHA check, the dataset retrains, and
// the overwritten checkpoint verifies again. In strict mode the corrupt
// file is an error instead.
func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	cfg := testConfig(t)
	mustRun(t, cfg)
	path := CheckpointPath(cfg.OutDir, "SynCoffee")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(blob, []byte(`"accuracy"`))
	if i < 0 {
		t.Fatalf("no accuracy field in checkpoint:\n%s", blob)
	}
	corrupted := bytes.Replace(blob, []byte(`"accuracy"`), []byte(`"accuracyX"`), 1)
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(cfg.OutDir, "SynCoffee", mustHash(t, cfg), cfg.Methods); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupt checkpoint err = %v, want ErrCheckpointCorrupt", err)
	}

	strict := cfg
	strict.Resume = true
	strict.Strict = true
	if _, err := Run(context.Background(), strict); !errors.Is(err, ErrRunFailed) {
		t.Fatalf("strict resume over corrupt checkpoint err = %v, want ErrRunFailed", err)
	}

	cfg.Resume = true
	res := mustRun(t, cfg)
	if res.Resumed != 2 {
		t.Fatalf("resumed %d, want 2 (the corrupt dataset must retrain)", res.Resumed)
	}
	if _, err := readCheckpoint(cfg.OutDir, "SynCoffee", mustHash(t, cfg), cfg.Methods); err != nil {
		t.Fatalf("rewritten checkpoint fails verification: %v", err)
	}
}

// TestResumeRejectsConfigMismatch asserts checkpoints from a different
// result-affecting configuration are not spliced into the table.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	cfg := testConfig(t)
	mustRun(t, cfg)

	changed := cfg
	opts := testOptions()
	opts.Gamma = 0.3
	changed.Methods = []Method{RPM(opts)}
	if mustHash(t, cfg) == mustHash(t, changed) {
		t.Fatal("config hash ignores Gamma")
	}
	if _, err := readCheckpoint(cfg.OutDir, "SynCoffee", mustHash(t, changed), changed.Methods); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("mismatched checkpoint err = %v, want ErrCheckpointMismatch", err)
	}
	// Workers and Instrument must NOT change the hash: they never change
	// an outcome, and a resume at a different worker count is legal.
	rewired := cfg
	opts = testOptions()
	opts.Workers = 7
	opts.Instrument = true
	rewired.Methods = []Method{RPM(opts)}
	if mustHash(t, cfg) != mustHash(t, rewired) {
		t.Fatal("config hash depends on Workers/Instrument")
	}
	changed.Resume = true
	res := mustRun(t, changed)
	if res.Resumed != 0 {
		t.Fatalf("resumed %d datasets across a config change, want 0", res.Resumed)
	}
}

// TestTimeout asserts a dataset exceeding the per-dataset budget is
// recorded as a timeout row while the run continues.
func TestTimeout(t *testing.T) {
	cfg := testConfig(t)
	cfg.Timeout = time.Nanosecond
	res := mustRun(t, cfg)
	for _, oc := range res.Outcomes {
		if oc.Status != "timeout" || oc.ErrKind != "timeout" {
			t.Fatalf("%s: status=%s kind=%s, want timeout", oc.Dataset, oc.Status, oc.ErrKind)
		}
	}
}

// TestShardPartition asserts the shards cover every dataset exactly
// once regardless of worker count, and out-of-range shards are
// rejected.
func TestShardPartition(t *testing.T) {
	seen := map[string]int{}
	for shard := 0; shard < 2; shard++ {
		cfg := testConfig(t)
		cfg.Shard, cfg.Shards = shard, 2
		res := mustRun(t, cfg)
		for _, oc := range res.Outcomes {
			seen[oc.Dataset]++
		}
	}
	if len(seen) != len(smokeDatasets) {
		t.Fatalf("shards covered %d datasets, want %d", len(seen), len(smokeDatasets))
	}
	for name, n := range seen {
		if n != 1 {
			t.Fatalf("%s ran %d times across shards", name, n)
		}
	}
}

// TestBadConfig asserts up-front validation returns typed ErrBadConfig
// for every unusable configuration.
func TestBadConfig(t *testing.T) {
	base := testConfig(t)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no outdir", func(c *Config) { c.OutDir = "" }},
		{"no source", func(c *Config) { c.Source = nil }},
		{"shard out of range", func(c *Config) { c.Shard, c.Shards = 2, 2 }},
		{"negative shard", func(c *Config) { c.Shard = -1 }},
		{"negative timeout", func(c *Config) { c.Timeout = -time.Second }},
		{"unknown dataset", func(c *Config) { c.Datasets = []string{"NoSuch"} }},
		{"unsafe name", func(c *Config) { c.Source = SyntheticSource{Subset: []string{"../evil"}} }},
		{"no methods", func(c *Config) { c.Methods = nil }},
		{"duplicate method", func(c *Config) { c.Methods = append(c.Methods, c.Methods[0]) }},
		{"method without Train", func(c *Config) { c.Methods = []Method{{Name: "x"}} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// TestBaggedArchive runs the mini archive with sampled bagged training
// — the configuration the EXPERIMENTS.md speedup table uses — and
// checks the ensemble columns land in the rows.
func TestBaggedArchive(t *testing.T) {
	cfg := testConfig(t)
	opts := testOptions()
	opts.Mode = rpm.ParamDIRECT
	opts.Splits = 2
	opts.MaxEvals = 8
	opts.Sample = rpm.SampleOptions{Rate: 0.2, Seed: 5}
	opts.Bags = 3
	cfg.Methods = []Method{RPM(opts)}
	cfg.Datasets = []string{"SynItalyPower"}
	res := mustRun(t, cfg)
	oc := res.Outcomes[0]
	if oc.Status != "ok" {
		t.Fatalf("bagged run failed: %s: %s", oc.ErrKind, oc.ErrMsg)
	}
	if oc.Bags != 3 {
		t.Fatalf("Bags column = %d, want 3", oc.Bags)
	}
	if oc.Counters["train.bags.members"] != 3 {
		t.Fatalf("bag member counter = %d, want 3", oc.Counters["train.bags.members"])
	}
	if oc.Counters["train.sample.windows.dropped"] <= 0 {
		t.Fatal("sampled run recorded no dropped windows")
	}
}

// TestDirSource round-trips the mini archive through UCR files on disk.
func TestDirSource(t *testing.T) {
	dir := t.TempDir()
	syn := SyntheticSource{Seed: 3, Subset: []string{"SynCoffee"}}
	split, err := syn.Load("SynCoffee")
	if err != nil {
		t.Fatal(err)
	}
	for suffix, d := range map[string]rpm.Dataset{"_TRAIN": split.Train, "_TEST": split.Test} {
		f, err := os.Create(filepath.Join(dir, "SynCoffee"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := rpm.SaveUCR(f, d); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A half split (TRAIN without TEST) must be skipped, not fail.
	if err := os.WriteFile(filepath.Join(dir, "Orphan_TRAIN"), []byte("1 0.0 1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := DirSource{Dir: dir}
	names, err := src.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "SynCoffee" {
		t.Fatalf("Names = %v, want [SynCoffee]", names)
	}
	got, err := src.Load("SynCoffee")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Train) != len(split.Train) || len(got.Test) != len(split.Test) {
		t.Fatalf("round-trip sizes %d/%d, want %d/%d", len(got.Train), len(got.Test), len(split.Train), len(split.Test))
	}

	cfg := testConfig(t)
	cfg.Source = src
	res := mustRun(t, cfg)
	if len(res.Outcomes) != 1 || res.Outcomes[0].Status != "ok" {
		t.Fatalf("dir-source archive run broken: %+v", res.Outcomes)
	}
}

// TestRunCancel asserts parent-context cancellation aborts the run with
// the context error and does not checkpoint aborted datasets.
func TestRunCancel(t *testing.T) {
	cfg := testConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run err = %v, want context.Canceled", err)
	}
	entries, err := os.ReadDir(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ckpt.json") {
			t.Fatalf("canceled run left checkpoint %s", e.Name())
		}
	}
}

// TestBadConfigNonFinite asserts settings that cannot be fingerprinted
// — NaN or ±Inf in an RPM option or in any method's settings — fail Run
// with ErrBadConfig instead of panicking.
func TestBadConfigNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		opts := testOptions()
		opts.Gamma = v
		sampled := testOptions()
		sampled.Sample.Rate = v
		custom := RPM(testOptions())
		custom.Settings = struct{ Threshold float64 }{v}
		for name, m := range map[string]Method{"gamma": RPM(opts), "sample rate": RPM(sampled), "method settings": custom} {
			cfg := testConfig(t)
			cfg.Methods = []Method{m}
			if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s = %v: err = %v, want ErrBadConfig", name, v, err)
			}
		}
	}
}

// TestErrorRateMatchesStats pins Outcome.ErrorRate to stats.ErrorRate
// bit for bit: the experiments' Wilcoxon ranks depend on the exact float.
func TestErrorRateMatchesStats(t *testing.T) {
	for n := 1; n <= 400; n++ {
		truth := make([]int, n)
		preds := make([]int, n)
		for correct := 0; correct <= n; correct++ {
			for i := range preds {
				preds[i] = 0
				if i >= correct {
					preds[i] = 1
				}
			}
			oc := Outcome{TestSize: n, Accuracy: float64(correct) / float64(n)}
			if got, want := oc.ErrorRate(), stats.ErrorRate(preds, truth); got != want {
				t.Fatalf("n=%d correct=%d: ErrorRate %v, stats.ErrorRate %v", n, correct, got, want)
			}
		}
	}
}

// TestMethodRows runs two methods per dataset: one row per (dataset,
// method) in dataset-major, method-list order, each dataset's methods
// recording into one registry, and a byte-identical resume.
func TestMethodRows(t *testing.T) {
	cfg := testConfig(t)
	other := testOptions()
	other.Gamma = 0.4
	second := RPM(other)
	second.Name = "RPM-gamma-0.4"
	var lines []string
	recording := Method{Name: "recording", Train: func(ctx context.Context, train rpm.Dataset, reg *obs.Registry) (Model, error) {
		reg.Counter("test.trained").Add(1)
		return Model{Predict: func(_ context.Context, test rpm.Dataset) ([]int, error) {
			return make([]int, len(test)), nil
		}}, nil
	}}
	cfg.Methods = append(cfg.Methods, second, recording)
	cfg.Workers = 1
	cfg.Progress = func(s string) { lines = append(lines, s) }
	res := mustRun(t, cfg)
	if len(res.Outcomes) != 3*len(smokeDatasets) || len(lines) != len(smokeDatasets) {
		t.Fatalf("%d rows, %d progress lines", len(res.Outcomes), len(lines))
	}
	for i, oc := range res.Outcomes {
		wantDS, wantM := smokeDatasets[i/3], cfg.Methods[i%3].Name
		if oc.Dataset != wantDS || oc.Method != wantM || oc.Status != "ok" {
			t.Fatalf("row %d = (%s, %s, %s), want (%s, %s, ok)", i, oc.Dataset, oc.Method, oc.Status, wantDS, wantM)
		}
		if oc.Report == nil || len(oc.Report.Counters) != 1 || oc.Report.Counters[0].Value != 1 {
			t.Fatalf("row %d: dataset report %+v, want the recording method's one counter", i, oc.Report)
		}
	}
	cfg.Resume = true
	if got, want := detJSON(t, mustRun(t, cfg)), detJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("resumed multi-method table differs:\n%s\n---\n%s", got, want)
	}
	// A checkpoint whose rows do not match the method list is corrupt.
	if _, err := readCheckpoint(cfg.OutDir, "SynCoffee", mustHash(t, cfg), cfg.Methods[:2]); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("row/method mismatch err = %v, want ErrCheckpointCorrupt", err)
	}
}
