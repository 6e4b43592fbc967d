package rpm

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	split := GenerateDataset("SynCBF", 1)
	opts := DefaultOptions()
	opts.Mode = ParamFixed
	opts.Params = SAXParams{Window: 40, PAA: 6, Alphabet: 4}
	clf, err := Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	preds := clf.PredictBatch(split.Test)
	wrong := 0
	for i, p := range preds {
		if p != split.Test[i].Label {
			wrong++
		}
	}
	if e := float64(wrong) / float64(len(preds)); e > 0.15 {
		t.Errorf("public API RPM error = %v", e)
	}
	if len(clf.Patterns()) == 0 {
		t.Error("no patterns")
	}
	if len(clf.PerClassParams()) != 3 {
		t.Errorf("PerClassParams = %v", clf.PerClassParams())
	}
	f := clf.Transform(split.Test[0].Values)
	if len(f) != len(clf.Patterns()) {
		t.Error("Transform dimension mismatch")
	}
}

// TestPatternsCopyIsDeep: mutating the patterns Patterns returns must
// not reach the model, so a later Save writes the same bytes.
func TestPatternsCopyIsDeep(t *testing.T) {
	split := GenerateDataset("SynCBF", 1)
	opts := DefaultOptions()
	opts.Mode = ParamFixed
	opts.Params = SAXParams{Window: 40, PAA: 6, Alphabet: 4}
	clf, err := Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	var before, after bytes.Buffer
	if err := clf.Save(&before); err != nil {
		t.Fatal(err)
	}
	p := clf.Patterns()
	if len(p) == 0 {
		t.Fatal("no patterns")
	}
	p[0].Values[0] += 100
	if err := clf.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("mutating Patterns() changed the saved model")
	}
}

func TestDatasetNamesAndGenerate(t *testing.T) {
	names := DatasetNames()
	if len(names) < 15 {
		t.Fatalf("only %d datasets", len(names))
	}
	for _, n := range names[:3] {
		s := GenerateDataset(n, 2)
		if len(s.Train) == 0 || len(s.Test) == 0 || s.Name != n {
			t.Errorf("GenerateDataset(%s) broken", n)
		}
	}
	abp := GenerateABP(1)
	if len(abp.Train) == 0 {
		t.Error("ABP empty")
	}
}

func TestBaselinesSatisfyModel(t *testing.T) {
	split := GenerateDataset("SynItalyPower", 3)
	models := map[string]func() (Model, error){
		"NN-ED":   func() (Model, error) { return NewNNEuclidean(split.Train) },
		"NN-DTW":  func() (Model, error) { return NewNNDTW(split.Train, 2) },
		"SAX-VSM": func() (Model, error) { return TrainSAXVSM(split.Train, 1) },
		"FS":      func() (Model, error) { return TrainFastShapelets(split.Train, 1) },
	}
	for name, build := range models {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		preds := PredictAll(m, split.Test)
		wrong := 0
		for i, p := range preds {
			if p != split.Test[i].Label {
				wrong++
			}
		}
		if e := float64(wrong) / float64(len(preds)); e > 0.45 {
			t.Errorf("%s error = %v", name, e)
		}
	}
}

func TestExtensionBaselines(t *testing.T) {
	split := GenerateDataset("SynItalyPower", 5)
	models := map[string]func() (Model, error){
		"LS": func() (Model, error) { return TrainLearningShapelets(split.Train, 1) },
	}
	for name, build := range models {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		preds := PredictAll(m, split.Test)
		wrong := 0
		for i, p := range preds {
			if p != split.Test[i].Label {
				wrong++
			}
		}
		if e := float64(wrong) / float64(len(preds)); e > 0.45 {
			t.Errorf("%s error = %v", name, e)
		}
	}
}

func TestUCRRoundTrip(t *testing.T) {
	d := Dataset{
		{Label: 1, Values: []float64{1, 2, 3}},
		{Label: 2, Values: []float64{4, 5, 6}},
	}
	var buf bytes.Buffer
	if err := SaveUCR(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadUCR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip: %v", got)
	}
}

func TestZNormalizeAndRotate(t *testing.T) {
	d := Dataset{{Label: 1, Values: []float64{1, 2, 3, 4}}}
	ZNormalize(d)
	var mean float64
	for _, v := range d[0].Values {
		mean += v
	}
	if math.Abs(mean) > 1e-9 {
		t.Error("ZNormalize did not normalize in place")
	}
	r := Rotate([]float64{1, 2, 3, 4}, 2)
	if !reflect.DeepEqual(r, []float64{3, 4, 1, 2}) {
		t.Errorf("Rotate = %v", r)
	}
}

func TestSaveLoadPublicAPI(t *testing.T) {
	split := GenerateDataset("SynGunPoint", 1)
	opts := DefaultOptions()
	opts.Mode = ParamFixed
	opts.Params = SAXParams{Window: 30, PAA: 6, Alphabet: 4}
	clf, err := Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range split.Test[:20] {
		if loaded.Predict(in.Values) != clf.Predict(in.Values) {
			t.Fatal("loaded classifier predicts differently")
		}
	}
	if _, err := LoadClassifier(bytes.NewBufferString("junk")); err == nil {
		t.Error("expected error loading junk")
	}
}

func TestRePairOptionPublicAPI(t *testing.T) {
	split := GenerateDataset("SynCBF", 4)
	opts := DefaultOptions()
	opts.Mode = ParamFixed
	opts.Params = SAXParams{Window: 40, PAA: 6, Alphabet: 4}
	opts.GI = GIRePair
	clf, err := Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clf.Patterns()) == 0 {
		t.Error("Re-Pair found no patterns via public API")
	}
}

func TestTrainErrorPropagates(t *testing.T) {
	if _, err := Train(nil, DefaultOptions()); err == nil {
		t.Error("expected error")
	}
}
