package rpm

import (
	"reflect"
	"testing"
)

func TestDiscoverMotifs(t *testing.T) {
	split := GenerateDataset("SynCBF", 1)
	motifs := DiscoverMotifs(split.Train, SAXParams{Window: 40, PAA: 6, Alphabet: 4}, DefaultOptions())
	if len(motifs) != 3 {
		t.Fatalf("motifs for %d classes, want 3", len(motifs))
	}
	for class, ms := range motifs {
		if len(ms) == 0 {
			t.Errorf("class %d has no motifs", class)
			continue
		}
		prev := ms[0].Support
		for _, m := range ms {
			if m.Class != class {
				t.Errorf("motif in wrong bucket: %d vs %d", m.Class, class)
			}
			if m.Support > prev {
				t.Error("motifs not sorted by support")
			}
			prev = m.Support
			if m.Support < 2 || len(m.Occurrences) < m.Support {
				t.Errorf("support %d inconsistent with %d occurrences", m.Support, len(m.Occurrences))
			}
			if len(m.Prototype) == 0 {
				t.Error("empty prototype")
			}
			// occurrences must point into real instances
			classInstances := 0
			for _, in := range split.Train {
				if in.Label == class {
					classInstances++
				}
			}
			for _, o := range m.Occurrences {
				if o.Series < 0 || o.Series >= classInstances {
					t.Errorf("occurrence series %d out of range", o.Series)
				}
				if len(o.Values) == 0 || o.Start < 0 {
					t.Error("degenerate occurrence")
				}
			}
		}
	}
}

func TestDiscoverMotifsSaveLoadIndependence(t *testing.T) {
	// DiscoverMotifs must not depend on parameter-search options.
	split := GenerateDataset("SynGunPoint", 2)
	o1 := DefaultOptions()
	o1.MaxEvals = 5
	o2 := DefaultOptions()
	o2.MaxEvals = 500
	m1 := DiscoverMotifs(split.Train, SAXParams{Window: 30, PAA: 6, Alphabet: 4}, o1)
	m2 := DiscoverMotifs(split.Train, SAXParams{Window: 30, PAA: 6, Alphabet: 4}, o2)
	for class := range m1 {
		if len(m1[class]) != len(m2[class]) {
			t.Errorf("class %d: motif counts differ with unrelated options", class)
		}
	}
}

// TestDiscoverMotifsOptionRules: DiscoverMotifs takes Train's option
// rules. A zero Gamma means the default one, so it finds exactly
// DefaultOptions' motifs; an option Train rejects finds none, leaving
// every class's entry empty.
func TestDiscoverMotifsOptionRules(t *testing.T) {
	split := GenerateDataset("SynCBF", 1)
	p := SAXParams{Window: 40, PAA: 6, Alphabet: 4}
	zero := DefaultOptions()
	zero.Gamma = 0
	want := DiscoverMotifs(split.Train, p, DefaultOptions())
	if got := DiscoverMotifs(split.Train, p, zero); !reflect.DeepEqual(got, want) {
		t.Fatal("zero Gamma found different motifs than DefaultOptions")
	}
	bad := DefaultOptions()
	bad.MaxEvals = -1
	got := DiscoverMotifs(split.Train, p, bad)
	if len(got) != len(want) {
		t.Fatalf("rejected options: %d class entries, want %d", len(got), len(want))
	}
	for class, ms := range got {
		if len(ms) != 0 {
			t.Errorf("rejected options: class %d has %d motifs", class, len(ms))
		}
	}
}
