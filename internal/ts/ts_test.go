package ts

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStd(t *testing.T) {
	cases := []struct {
		name string
		v    []float64
		mean float64
		std  float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{5}, 5, 0},
		{"constant", []float64{2, 2, 2, 2}, 2, 0},
		{"simple", []float64{1, 2, 3, 4}, 2.5, math.Sqrt(1.25)},
		{"negative", []float64{-1, 1}, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.v); !almostEqual(got, c.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, c.mean)
			}
			if got := Std(c.v); !almostEqual(got, c.std, 1e-12) {
				t.Errorf("Std = %v, want %v", got, c.std)
			}
		})
	}
}

func TestZNormProperties(t *testing.T) {
	f := func(raw []float64) bool {
		// clamp values to a sane range to avoid overflow in quick-generated data
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			v = append(v, math.Mod(x, 1e6))
		}
		if len(v) < 2 {
			return true
		}
		z := ZNorm(v)
		if Std(v) < ZNormThreshold {
			for _, x := range z {
				if x != 0 {
					return false
				}
			}
			return true
		}
		return almostEqual(Mean(z), 0, 1e-6) && almostEqual(Std(z), 1, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZNormConstantSeries(t *testing.T) {
	z := ZNorm([]float64{3, 3, 3})
	for _, x := range z {
		if x != 0 {
			t.Fatalf("constant series should z-normalize to zeros, got %v", z)
		}
	}
}

func TestZNormIntoInPlace(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	want := ZNorm(v)
	ZNormInto(v, v)
	if !reflect.DeepEqual(v, want) {
		t.Errorf("in-place ZNormInto = %v, want %v", v, want)
	}
}

func TestZNormIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	ZNormInto(make([]float64, 2), make([]float64, 3))
}

func TestNumWindows(t *testing.T) {
	cases := []struct{ m, n, want int }{
		{10, 3, 8}, {5, 5, 1}, {4, 5, 0}, {10, 0, 0}, {0, 1, 0},
	}
	for _, c := range cases {
		if got := NumWindows(c.m, c.n); got != c.want {
			t.Errorf("NumWindows(%d,%d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

func TestRotate(t *testing.T) {
	v := []float64{0, 1, 2, 3, 4}
	cases := []struct {
		cut  int
		want []float64
	}{
		{0, []float64{0, 1, 2, 3, 4}},
		{2, []float64{2, 3, 4, 0, 1}},
		{5, []float64{0, 1, 2, 3, 4}},
		{7, []float64{2, 3, 4, 0, 1}},
		{-1, []float64{4, 0, 1, 2, 3}},
	}
	for _, c := range cases {
		if got := Rotate(v, c.cut); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Rotate(cut=%d) = %v, want %v", c.cut, got, c.want)
		}
	}
}

func TestRotateProperties(t *testing.T) {
	f := func(v []float64, cut int) bool {
		n := len(v)
		r := Rotate(v, cut)
		if len(r) != n {
			return false
		}
		if n == 0 {
			return true
		}
		// double rotation by complementary cuts restores the original
		k := ((cut % n) + n) % n
		back := Rotate(r, n-k)
		return reflect.DeepEqual(back, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRotateHalf(t *testing.T) {
	got := RotateHalfInto(nil, []float64{1, 2, 3, 4})
	if !reflect.DeepEqual(got, []float64{3, 4, 1, 2}) {
		t.Errorf("RotateHalfInto = %v", got)
	}
	// odd length: cut at floor(n/2)
	got = RotateHalfInto(got, []float64{1, 2, 3})
	if !reflect.DeepEqual(got, []float64{2, 3, 1}) {
		t.Errorf("RotateHalfInto odd = %v", got)
	}
}

func TestConcat(t *testing.T) {
	c := Concat([]float64{1, 2}, []float64{3, 4, 5}, []float64{6})
	if !reflect.DeepEqual(c.Values, []float64{1, 2, 3, 4, 5, 6}) {
		t.Errorf("Values = %v", c.Values)
	}
	if !reflect.DeepEqual(c.Starts, []int{0, 2, 5}) {
		t.Errorf("Starts = %v", c.Starts)
	}
	if !reflect.DeepEqual(c.Lens, []int{2, 3, 1}) {
		t.Errorf("Lens = %v", c.Lens)
	}
}

func TestSeriesIndex(t *testing.T) {
	c := Concat([]float64{1, 2}, []float64{3, 4, 5}, []float64{6})
	cases := []struct{ off, want int }{
		{0, 0}, {1, 0}, {2, 1}, {4, 1}, {5, 2}, {6, -1}, {-1, -1},
	}
	for _, cse := range cases {
		if got := c.SeriesIndex(cse.off); got != cse.want {
			t.Errorf("SeriesIndex(%d) = %d, want %d", cse.off, got, cse.want)
		}
	}
}

func TestSpansJunction(t *testing.T) {
	c := Concat([]float64{1, 2, 3}, []float64{4, 5, 6})
	cases := []struct {
		start, n int
		want     bool
	}{
		{0, 3, false}, {3, 3, false}, {2, 2, true}, {1, 4, true},
		{0, 6, true}, {5, 1, false}, {5, 2, true}, {0, 0, false},
	}
	for _, cse := range cases {
		if got := c.SpansJunction(cse.start, cse.n); got != cse.want {
			t.Errorf("SpansJunction(%d,%d) = %v, want %v", cse.start, cse.n, got, cse.want)
		}
	}
}

func TestLocal(t *testing.T) {
	c := Concat([]float64{1, 2, 3}, []float64{4, 5})
	if s, l := c.Local(4); s != 1 || l != 1 {
		t.Errorf("Local(4) = (%d,%d), want (1,1)", s, l)
	}
	if s, l := c.Local(99); s != -1 || l != -1 {
		t.Errorf("Local(99) = (%d,%d), want (-1,-1)", s, l)
	}
}

func TestConcatDatasetRoundTrip(t *testing.T) {
	d := Dataset{
		{Label: 1, Values: []float64{1, 2, 3}},
		{Label: 2, Values: []float64{4, 5}},
	}
	c := ConcatDataset(d)
	for i, in := range d {
		start := c.Starts[i]
		got := c.Values[start : start+c.Lens[i]]
		if !reflect.DeepEqual(got, in.Values) {
			t.Errorf("series %d = %v, want %v", i, got, in.Values)
		}
	}
}

func TestDatasetClassesAndByClass(t *testing.T) {
	d := Dataset{
		{Label: 3, Values: []float64{1}},
		{Label: 1, Values: []float64{2}},
		{Label: 3, Values: []float64{3}},
	}
	if got := d.Classes(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("Classes = %v", got)
	}
	by := d.ByClass()
	if len(by[3]) != 2 || len(by[1]) != 1 {
		t.Errorf("ByClass sizes wrong: %v", by)
	}
	if got := d.Labels(); !reflect.DeepEqual(got, []int{3, 1, 3}) {
		t.Errorf("Labels = %v", got)
	}
}

func TestMinLen(t *testing.T) {
	if got := (Dataset{}).MinLen(); got != 0 {
		t.Errorf("empty MinLen = %d", got)
	}
	d := Dataset{
		{Values: make([]float64, 5)},
		{Values: make([]float64, 3)},
		{Values: make([]float64, 9)},
	}
	if got := d.MinLen(); got != 3 {
		t.Errorf("MinLen = %d, want 3", got)
	}
}

func TestInstanceLen(t *testing.T) {
	in := Instance{Label: 1, Values: []float64{1, 2, 3}}
	if in.Len() != 3 {
		t.Errorf("Len = %d", in.Len())
	}
	if (Instance{}).Len() != 0 {
		t.Error("empty Len != 0")
	}
}

func TestResampleLocal(t *testing.T) {
	// Resample is exercised extensively from the dist package; this local
	// test pins its basic contract for per-package coverage.
	got := Resample([]float64{0, 2}, 3)
	want := []float64{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Resample = %v, want %v", got, want)
	}
	if Resample(nil, 2)[0] != 0 {
		t.Error("empty input should resample to zeros")
	}
}

func TestZNormInstanceNormalizesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Dataset{}
	for i := 0; i < 5; i++ {
		v := make([]float64, 50)
		for j := range v {
			v[j] = rng.NormFloat64()*3 + 10
		}
		d = append(d, Instance{Label: i, Values: v})
	}
	ZNormInstance(d)
	for i, in := range d {
		if !almostEqual(Mean(in.Values), 0, 1e-9) || !almostEqual(Std(in.Values), 1, 1e-9) {
			t.Errorf("instance %d not normalized", i)
		}
	}
}
