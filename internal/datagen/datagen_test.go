package datagen

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"rpm/internal/dist"
	"rpm/internal/ts"
)

func TestSuiteSpecsConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range Suite() {
		if g.Name == "" || g.Classes < 2 || g.Length < 16 || g.TrainSize < g.Classes || g.TestSize < g.Classes {
			t.Errorf("%s: bad spec %+v", g.Name, g.Spec)
		}
		if seen[g.Name] {
			t.Errorf("duplicate dataset name %s", g.Name)
		}
		seen[g.Name] = true
	}
	if len(Suite()) < 15 {
		t.Errorf("suite has only %d datasets", len(Suite()))
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, g := range append(Suite(), ABP()) {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			s := g.Generate(1)
			if len(s.Train) != g.TrainSize || len(s.Test) != g.TestSize {
				t.Fatalf("sizes %d/%d, want %d/%d", len(s.Train), len(s.Test), g.TrainSize, g.TestSize)
			}
			for _, in := range append(append(ts.Dataset(nil), s.Train...), s.Test...) {
				if len(in.Values) != g.Length {
					t.Fatalf("instance length %d, want %d", len(in.Values), g.Length)
				}
				if in.Label < 1 || in.Label > g.Classes {
					t.Fatalf("label %d outside 1..%d", in.Label, g.Classes)
				}
				for _, x := range in.Values {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatal("non-finite value generated")
					}
				}
			}
			// every class must be represented in both parts
			if got := len(s.Train.Classes()); got != g.Classes {
				t.Errorf("train has %d classes, want %d", got, g.Classes)
			}
			if got := len(s.Test.Classes()); got != g.Classes {
				t.Errorf("test has %d classes, want %d", got, g.Classes)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := CBF()
	a := g.Generate(42)
	b := g.Generate(42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different data")
	}
	c := g.Generate(43)
	if reflect.DeepEqual(a.Train[0].Values, c.Train[0].Values) {
		t.Error("different seeds produced identical data")
	}
}

func TestGenerateZNormalized(t *testing.T) {
	s := GunPoint().Generate(7)
	for i, in := range s.Train {
		if math.Abs(ts.Mean(in.Values)) > 1e-9 || math.Abs(ts.Std(in.Values)-1) > 1e-9 {
			t.Fatalf("train[%d] not z-normalized", i)
		}
	}
}

func TestABPNotNormalizedAndPlausible(t *testing.T) {
	s := ABP().Generate(11)
	for _, in := range s.Train {
		m := ts.Mean(in.Values)
		if m < 40 || m > 140 {
			t.Fatalf("ABP mean %v outside physiologic range", m)
		}
	}
	// alarm class must have visibly lower mean pressure for the
	// hypotensive subtype; check the class means differ
	by := s.Train.ByClass()
	m1 := 0.0
	for _, in := range by[1] {
		m1 += ts.Mean(in.Values)
	}
	m1 /= float64(len(by[1]))
	m2 := 0.0
	for _, in := range by[2] {
		m2 += ts.Mean(in.Values)
	}
	m2 /= float64(len(by[2]))
	if m2 >= m1 {
		t.Errorf("alarm mean %v not below normal mean %v", m2, m1)
	}
}

func TestWaferImbalance(t *testing.T) {
	s := Wafer().Generate(3)
	by := s.Train.ByClass()
	if len(by[1]) <= len(by[2])*4 {
		t.Errorf("Wafer should be heavily imbalanced, got %d vs %d", len(by[1]), len(by[2]))
	}
	if len(by[2]) == 0 {
		t.Error("minority class absent")
	}
}

// Classes must be structurally separable: the mean intra-class closest-match
// distance of a class-discriminative prototype should be smaller within the
// class than across classes, for at least the pattern-driven datasets.
func TestClassesAreSeparable(t *testing.T) {
	for _, name := range []string{"SynCBF", "SynGunPoint", "SynCoffee", "SynECGFiveDays"} {
		g := MustByName(name)
		s := g.Generate(5)
		by := s.Train.ByClass()
		// 1NN-ED on train instances: leave-one-out accuracy must beat chance
		correct := 0
		for i, in := range s.Train {
			best := math.Inf(1)
			bestLabel := -1
			for j, other := range s.Train {
				if i == j {
					continue
				}
				d := dist.Euclidean(in.Values, other.Values)
				if d < best {
					best = d
					bestLabel = other.Label
				}
			}
			if bestLabel == in.Label {
				correct++
			}
		}
		acc := float64(correct) / float64(len(s.Train))
		chance := 1 / float64(g.Classes)
		if acc < chance+0.2 {
			t.Errorf("%s: LOO 1NN accuracy %.2f barely above chance %.2f — classes not separable", name, acc, chance)
		}
		_ = by
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("SynCBF"); !ok {
		t.Error("SynCBF not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unexpected dataset found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName should panic on unknown name")
		}
	}()
	MustByName("nope")
}

func TestAllocate(t *testing.T) {
	g := Generator{Spec: Spec{Name: "x", Classes: 3, Length: 16}}
	counts := g.allocate(10)
	total := 0
	for _, c := range counts {
		if c < 1 {
			t.Errorf("class starved: %v", counts)
		}
		total += c
	}
	if total != 10 {
		t.Errorf("allocated %d, want 10", total)
	}
	// weighted
	g.ClassWeights = []float64{8, 1, 1}
	counts = g.allocate(20)
	if counts[0] <= counts[1] || counts[0] <= counts[2] {
		t.Errorf("weights ignored: %v", counts)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 20 {
		t.Errorf("weighted total %d", sum)
	}
}

func TestWarpProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := make([]float64, 100)
	for i := range v {
		v[i] = math.Sin(float64(i) / 7)
	}
	w := warp(v, rng, 0.8)
	if len(w) != len(v) {
		t.Fatal("warp changed length")
	}
	// endpoints are (approximately) pinned
	if math.Abs(w[0]-v[0]) > 1e-9 {
		t.Errorf("warp moved the first point: %v vs %v", w[0], v[0])
	}
	// warped values stay within the original range (interpolation)
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	for i, x := range w {
		if x < lo-1e-9 || x > hi+1e-9 {
			t.Fatalf("warped value %v at %d outside [%v,%v]", x, i, lo, hi)
		}
	}
	// zero strength and short input are identity copies
	if got := warp(v, rng, 0); !reflect.DeepEqual(got, v) {
		t.Error("strength 0 must be identity")
	}
	short := []float64{1, 2}
	if got := warp(short, rng, 1); !reflect.DeepEqual(got, short) {
		t.Error("short input must be copied unchanged")
	}
	// must not alias the input
	w[3] = 999
	if v[3] == 999 {
		t.Error("warp aliased its input")
	}
}

func TestSmoothAndShapesHelpers(t *testing.T) {
	v := []float64{0, 0, 10, 0, 0}
	sm := smooth(v, 1)
	if sm[2] >= 10 || sm[1] <= 0 {
		t.Errorf("smooth = %v", sm)
	}
	if got := smooth(v, 0); !reflect.DeepEqual(got, v) {
		t.Errorf("smooth k=0 should copy, got %v", got)
	}
	// addPlateau ramps must be bounded by the plateau amplitude
	p := make([]float64, 30)
	addPlateau(p, 10, 20, 3, 2)
	for i, x := range p {
		if x < 0 || x > 2+1e-12 {
			t.Errorf("plateau out of range at %d: %v", i, x)
		}
	}
	if p[15] != 2 {
		t.Errorf("plateau top = %v", p[15])
	}
}
