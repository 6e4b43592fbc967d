package rpm

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func instrumentedOpts() Options {
	o := DefaultOptions()
	o.Splits = 2
	o.MaxEvals = 8
	o.Instrument = true
	return o
}

// TestTrainReport is the public acceptance test for the instrumentation
// surface: training with Options.Instrument yields a report whose
// headline counters are all positive on a non-trivial dataset, whose
// stage tree covers the paper's steps, and whose JSON round-trips.
// SynControl's search runs its whole budget, so it records cache hits.
func TestTrainReport(t *testing.T) {
	split := GenerateDataset("SynControl", 3)
	clf, err := Train(split.Train, instrumentedOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep := clf.TrainReport()
	if rep == nil {
		t.Fatal("TrainReport returned nil after instrumented training")
	}
	for _, ctr := range []string{
		CounterCandidates, CounterClustersKept, CounterPruneKept,
		CounterCacheHits, CounterCacheMisses, CounterSearchEvals,
		CounterCFSExpansions, CounterCFSSelected,
	} {
		if v := rep.Counter(ctr); v <= 0 {
			t.Errorf("counter %q = %d, want > 0", ctr, v)
		}
	}
	for _, st := range []string{StageTrain, StageParamSearch, StageCandidates, StageStep1, StageStep2, StageStep3, StageFit} {
		s := rep.Stage(st)
		if s == nil {
			t.Fatalf("stage %q missing", st)
		}
		if s.Wall <= 0 {
			t.Errorf("stage %q wall = %v, want > 0", st, s.Wall)
		}
	}
	if rep.Stage("no-such-stage") != nil {
		t.Error("Stage on unknown name must return nil")
	}

	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round TrainReport
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if round.Counter(CounterCandidates) != rep.Counter(CounterCandidates) {
		t.Fatal("round-tripped counter value differs")
	}

	txt := rep.String()
	for _, want := range []string{"stages:", StageTrain, "counters:", CounterCandidates, "pools:"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("report text missing %q:\n%s", want, txt)
		}
	}
}

// TestTrainReportOff: without Instrument the report is nil and its
// nil-tolerant readers behave.
func TestTrainReportOff(t *testing.T) {
	split := GenerateDataset("SynItalyPower", 3)
	o := instrumentedOpts()
	o.Instrument = false
	clf, err := Train(split.Train, o)
	if err != nil {
		t.Fatal(err)
	}
	rep := clf.TrainReport()
	if rep != nil {
		t.Fatal("TrainReport must be nil without Options.Instrument")
	}
	if rep.Counter(CounterCandidates) != 0 || rep.Stage(StageTrain) != nil {
		t.Fatal("nil report readers must return zero values")
	}
	if b, err := rep.JSON(); err != nil || string(b) != "null" {
		t.Fatalf("nil report JSON = %q, %v", b, err)
	}
	if !strings.Contains(rep.String(), "not instrumented") {
		t.Fatalf("nil report String = %q", rep.String())
	}
}

// TestInstrumentDoesNotChangeModel is the public half of the
// byte-identity guarantee: instrumented and uninstrumented training
// agree on every observable model property.
func TestInstrumentDoesNotChangeModel(t *testing.T) {
	split := GenerateDataset("SynItalyPower", 3)
	on := instrumentedOpts()
	off := instrumentedOpts()
	off.Instrument = false
	a, err := Train(split.Train, on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(split.Train, off)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Patterns(), b.Patterns()) {
		t.Fatal("patterns differ under instrumentation")
	}
	if !reflect.DeepEqual(a.PerClassParams(), b.PerClassParams()) {
		t.Fatal("selected parameters differ under instrumentation")
	}
	if !reflect.DeepEqual(a.PredictBatch(split.Test), b.PredictBatch(split.Test)) {
		t.Fatal("predictions differ under instrumentation")
	}
}
