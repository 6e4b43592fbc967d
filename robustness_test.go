package rpm

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// fixedTrainOpts returns fast, deterministic fixed-parameter training
// options so robustness tests don't pay for a parameter search.
func fixedTrainOpts() Options {
	o := DefaultOptions()
	o.Mode = ParamFixed
	o.Params = SAXParams{Window: 30, PAA: 6, Alphabet: 4}
	return o
}

func smallTrainSet() Dataset {
	return GenerateDataset("SynGunPoint", 1).Train[:10]
}

// TestTrainHostileInputs is the hostile-input matrix of ISSUE.md: every
// malformed training set or option must come back as a typed *Error
// matching the right sentinel, never a panic.
func TestTrainHostileInputs(t *testing.T) {
	good := smallTrainSet()
	nanSet := append(Dataset{}, good...)
	nanSet[0] = Instance{Label: nanSet[0].Label, Values: append([]float64{math.NaN()}, nanSet[0].Values[1:]...)}
	infSet := append(Dataset{}, good...)
	infSet[1] = Instance{Label: infSet[1].Label, Values: append([]float64{math.Inf(1)}, infSet[1].Values[1:]...)}
	shortSet := append(Dataset{}, good...)
	shortSet[2] = Instance{Label: shortSet[2].Label, Values: []float64{1}}
	oneClass := Dataset{}
	for _, in := range good {
		if in.Label == good[0].Label {
			oneClass = append(oneClass, in)
		}
	}
	badWindow := fixedTrainOpts()
	badWindow.Params = SAXParams{Window: 100000, PAA: 6, Alphabet: 4}
	badAlpha := fixedTrainOpts()
	badAlpha.Params = SAXParams{Window: 30, PAA: 6, Alphabet: 1}
	badPAA := fixedTrainOpts()
	badPAA.Params = SAXParams{Window: 30, PAA: 60, Alphabet: 4}
	badGamma := fixedTrainOpts()
	badGamma.Gamma = 1.5
	badTau := fixedTrainOpts()
	badTau.TauPercentile = 200
	badMode := fixedTrainOpts()
	badMode.Mode = ParamMode(42)
	badGI := fixedTrainOpts()
	badGI.GI = GIAlgorithm(42)
	negSplits := fixedTrainOpts()
	negSplits.Splits = -1
	negEvals := fixedTrainOpts()
	negEvals.MaxEvals = -3

	cases := []struct {
		name  string
		train Dataset
		opts  Options
		want  error
	}{
		{"empty training set", Dataset{}, fixedTrainOpts(), ErrBadInput},
		{"nil training set", nil, fixedTrainOpts(), ErrBadInput},
		{"NaN value", nanSet, fixedTrainOpts(), ErrBadInput},
		{"Inf value", infSet, fixedTrainOpts(), ErrBadInput},
		{"too-short series", shortSet, fixedTrainOpts(), ErrTooShort},
		{"empty series", Dataset{{Label: 1, Values: nil}, {Label: 2, Values: []float64{1, 2}}}, fixedTrainOpts(), ErrTooShort},
		{"single class", oneClass, fixedTrainOpts(), ErrBadInput},
		{"window past series length", good, badWindow, ErrBadInput},
		{"alphabet below minimum", good, badAlpha, ErrBadInput},
		{"PAA above window", good, badPAA, ErrBadInput},
		{"gamma out of range", good, badGamma, ErrBadInput},
		{"tau percentile out of range", good, badTau, ErrBadInput},
		{"unknown param mode", good, badMode, ErrBadInput},
		{"unknown GI algorithm", good, badGI, ErrBadInput},
		{"negative splits", good, negSplits, ErrBadInput},
		{"negative max evals", good, negEvals, ErrBadInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clf, err := Train(tc.train, tc.opts)
			if err == nil {
				t.Fatalf("Train accepted hostile input (got %d patterns)", len(clf.Patterns()))
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want errors.Is(err, %v)", err, tc.want)
			}
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("err %T is not a *rpm.Error", err)
			}
			if e.Op != "Train" {
				t.Fatalf("Op = %q, want Train", e.Op)
			}
		})
	}
}

// TestPredictTotalAndChecked: Predict must be total on degenerate input,
// PredictChecked must reject it with the right sentinel.
func TestPredictTotalAndChecked(t *testing.T) {
	clf, err := Train(smallTrainSet(), fixedTrainOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Total: none of these may panic.
	for _, q := range [][]float64{nil, {}, {1}, {1, 2}, make([]float64, 5000)} {
		_ = clf.Predict(q)
		_ = clf.Transform(q)
	}

	if _, err := clf.PredictChecked(nil); !errors.Is(err, ErrTooShort) {
		t.Fatalf("PredictChecked(nil) err = %v, want ErrTooShort", err)
	}
	if _, err := clf.PredictChecked([]float64{1, math.NaN()}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("PredictChecked(NaN) err = %v, want ErrBadInput", err)
	}
	if _, err := clf.TransformChecked([]float64{}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("TransformChecked(empty) err = %v, want ErrTooShort", err)
	}
	if _, err := clf.TransformChecked([]float64{math.Inf(-1)}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("TransformChecked(Inf) err = %v, want ErrBadInput", err)
	}

	q := smallTrainSet()[0].Values
	got, err := clf.PredictChecked(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := clf.Predict(q); got != want {
		t.Fatalf("PredictChecked = %d, Predict = %d", got, want)
	}
}

func TestPredictBatchContext(t *testing.T) {
	split := GenerateDataset("SynGunPoint", 1)
	clf, err := Train(split.Train, fixedTrainOpts())
	if err != nil {
		t.Fatal(err)
	}

	got, err := clf.PredictBatchContext(context.Background(), split.Test)
	if err != nil {
		t.Fatal(err)
	}
	want := clf.PredictBatch(split.Test)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: ctx batch %d != plain batch %d", i, got[i], want[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := clf.PredictBatchContext(ctx, split.Test); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch err = %v, want context.Canceled", err)
	}

	bad := Dataset{{Label: 1, Values: []float64{1, math.NaN()}}}
	if _, err := clf.PredictBatchContext(context.Background(), bad); !errors.Is(err, ErrBadInput) {
		t.Fatalf("NaN batch err = %v, want ErrBadInput", err)
	}
	empty := Dataset{{Label: 1, Values: nil}}
	if _, err := clf.PredictBatchContext(context.Background(), empty); !errors.Is(err, ErrTooShort) {
		t.Fatalf("empty-query batch err = %v, want ErrTooShort", err)
	}
}

// TestTrainContextCancellation: a canceled context aborts both parameter
// search modes promptly with ctx.Err(), pre-canceled or mid-train.
func TestTrainContextCancellation(t *testing.T) {
	train := GenerateDataset("SynGunPoint", 1).Train
	for _, mode := range []struct {
		name string
		mode ParamMode
	}{{"grid", ParamGrid}, {"direct", ParamDIRECT}} {
		t.Run("precanceled "+mode.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Mode = mode.mode
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			_, err := TrainContext(ctx, train, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("pre-canceled train took %v", d)
			}
		})
		t.Run("midtrain "+mode.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Mode = mode.mode
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := TrainContext(ctx, train, opts)
			if err == nil {
				t.Skip("training finished before the deadline on this machine")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if d := time.Since(start); d > 15*time.Second {
				t.Fatalf("canceled train returned only after %v — not within one evaluation", d)
			}
		})
	}
}

// TestTrainContextDeterminism: with a background context the trained
// model is byte-identical to Train's at the same Workers value, and the
// predictions agree across Workers values (the snapshot itself records
// the Workers option, so only same-Workers snapshots compare bytewise).
func TestTrainContextDeterminism(t *testing.T) {
	split := GenerateDataset("SynGunPoint", 1)
	train := split.Train[:10]
	var basePreds []int
	for _, workers := range []int{0, 1, 3} {
		o := fixedTrainOpts()
		o.Workers = workers
		plain, err := Train(train, o)
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := TrainContext(context.Background(), train, o)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := plain.Save(&want); err != nil {
			t.Fatal(err)
		}
		if err := ctxed.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Workers=%d: TrainContext snapshot differs from Train's", workers)
		}
		preds := ctxed.PredictBatch(split.Test)
		if basePreds == nil {
			basePreds = preds
			continue
		}
		for i := range preds {
			if preds[i] != basePreds[i] {
				t.Fatalf("Workers=%d: prediction %d differs across worker counts", workers, i)
			}
		}
	}
}

// TestLoadClassifierCorrupt: truncated, bit-flipped, and garbage model
// files must fail with ErrCorruptModel, never panic at load or predict.
func TestLoadClassifierCorrupt(t *testing.T) {
	clf, err := Train(smallTrainSet(), fixedTrainOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not a model at all")},
		{"truncated half", valid[:len(valid)/2]},
		{"truncated tail", valid[:len(valid)-5]},
		{"empty json", []byte("{}")},
		{"wrong version", bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":99`), 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadClassifier(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("loaded a corrupt snapshot")
			}
			if !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("err = %v, want ErrCorruptModel", err)
			}
		})
	}

	// Structural corruption: SVM feature dimension no longer matching the
	// pattern count — the crafted snapshot that used to panic in the
	// scaler at predict time — must be rejected at load.
	mismatched := bytes.Replace(valid, []byte(`"mean":[`), []byte(`"mean":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,`), 1)
	if !bytes.Equal(mismatched, valid) {
		_, err := LoadClassifier(bytes.NewReader(mismatched))
		if err == nil {
			t.Fatal("loaded a snapshot with mismatched SVM dimensions")
		}
		if !errors.Is(err, ErrCorruptModel) {
			t.Fatalf("err = %v, want ErrCorruptModel", err)
		}
	}

	// And the valid bytes still load and predict identically.
	loaded, err := LoadClassifier(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	q := smallTrainSet()[0].Values
	if loaded.Predict(q) != clf.Predict(q) {
		t.Fatal("round-tripped model predicts differently")
	}
}

func TestLoadUCRHostile(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"nan value", "1,0.5,NaN\n"},
		{"inf value", "1,Inf,2\n"},
		{"ragged", "1,1,2,3\n2,1,2\n"},
		{"label only", "1\n"},
		{"bad label", "x,1,2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadUCR(strings.NewReader(tc.in))
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("err = %v, want ErrBadInput", err)
			}
		})
	}

	// The variable-length escape hatch accepts ragged rows.
	d, err := LoadUCROptions(strings.NewReader("1,1,2,3\n2,1,2\n"), UCRReadOptions{AllowVariableLength: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || len(d[0].Values) != 3 || len(d[1].Values) != 2 {
		t.Fatalf("variable-length read wrong: %v", d)
	}
}

func TestBaselineConstructorValidation(t *testing.T) {
	builders := map[string]func(Dataset) (Model, error){
		"NewNNEuclidean":         func(d Dataset) (Model, error) { return NewNNEuclidean(d) },
		"NewNNDTWBest":           func(d Dataset) (Model, error) { return NewNNDTWBest(d) },
		"NewNNDTW":               func(d Dataset) (Model, error) { return NewNNDTW(d, 2) },
		"TrainSAXVSM":            func(d Dataset) (Model, error) { return TrainSAXVSM(d, 1) },
		"TrainFastShapelets":     func(d Dataset) (Model, error) { return TrainFastShapelets(d, 1) },
		"TrainLearningShapelets": func(d Dataset) (Model, error) { return TrainLearningShapelets(d, 1) },
	}
	hostile := map[string]Dataset{
		"empty":     {},
		"empty row": {{Label: 1, Values: nil}},
		"NaN":       {{Label: 1, Values: []float64{1, math.NaN()}}, {Label: 2, Values: []float64{1, 2}}},
	}
	for name, build := range builders {
		for hname, d := range hostile {
			m, err := build(d)
			if err == nil {
				t.Errorf("%s accepted %s training set (%T)", name, hname, m)
				continue
			}
			if !errors.Is(err, ErrBadInput) && !errors.Is(err, ErrTooShort) {
				t.Errorf("%s on %s: err = %v, want ErrBadInput or ErrTooShort", name, hname, err)
			}
		}
	}
}

func TestErrorTypeShape(t *testing.T) {
	cause := errors.New("the cause")
	e := &Error{Op: "Train", Kind: ErrBadInput, Err: cause}
	if !errors.Is(e, ErrBadInput) {
		t.Fatal("errors.Is(e, ErrBadInput) = false")
	}
	if !errors.Is(e, cause) {
		t.Fatal("errors.Is(e, cause) = false — cause chain not exposed")
	}
	if s := e.Error(); !strings.Contains(s, "Train") || !strings.Contains(s, "the cause") {
		t.Fatalf("Error() = %q", s)
	}
	bare := &Error{Op: "Predict", Kind: ErrTooShort}
	if !errors.Is(bare, ErrTooShort) {
		t.Fatal("bare error sentinel not matched")
	}
	if s := bare.Error(); !strings.Contains(s, "Predict") {
		t.Fatalf("Error() = %q", s)
	}
}

// FuzzLoadClassifier asserts the snapshot-loading contract: arbitrary
// bytes either fail with an error or produce a classifier whose Predict
// and Transform are total — never a panic either way.
func FuzzLoadClassifier(f *testing.F) {
	clf, err := Train(GenerateDataset("SynGunPoint", 1).Train[:6], fixedTrainOpts())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"Version":1}`))
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"Window"`), []byte(`"Wind0w"`), -1))
	f.Add(bytes.Replace(valid, []byte("1"), []byte("-1"), -1))
	f.Add(bytes.Replace(valid, []byte("0."), []byte("1e308"), -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadClassifier(bytes.NewReader(data))
		if err != nil {
			if loaded != nil {
				t.Fatal("non-nil classifier alongside an error")
			}
			return
		}
		// Whatever loaded must predict without panicking, on degenerate
		// and on ordinary queries alike.
		for _, q := range [][]float64{nil, {0}, {1, 2, 3}, make([]float64, 64)} {
			_ = loaded.Predict(q)
			_ = loaded.Transform(q)
		}
	})
}
