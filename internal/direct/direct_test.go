package direct

import (
	"math"
	"testing"
)

func TestSphere(t *testing.T) {
	f := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += v * v
		}
		return s
	}
	res := Minimize(f, []float64{-5, -5}, []float64{5, 5}, 500)
	if res.F > 0.01 {
		t.Errorf("sphere minimum %v at %v, want ~0", res.F, res.X)
	}
	if res.Evals > 500 {
		t.Errorf("budget exceeded: %d", res.Evals)
	}
}

func TestShiftedMinimum(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3.2)*(x[0]-3.2) + (x[1]+1.7)*(x[1]+1.7)
	}
	res := Minimize(f, []float64{-10, -10}, []float64{10, 10}, 2000)
	if math.Abs(res.X[0]-3.2) > 0.1 || math.Abs(res.X[1]+1.7) > 0.1 {
		t.Errorf("minimum at %v, want (3.2,-1.7); f=%v", res.X, res.F)
	}
}

func TestMultimodalFindsGlobal(t *testing.T) {
	// f has a shallow local min near x=4 and the global min near x=-3.
	f := func(x []float64) float64 {
		v := x[0]
		return 0.05*(v-4)*(v-4) - 5*math.Exp(-(v+3)*(v+3))
	}
	res := Minimize(f, []float64{-10}, []float64{10}, 300)
	if math.Abs(res.X[0]+3) > 0.3 {
		t.Errorf("found %v (f=%v), want global minimum near -3", res.X, res.F)
	}
}

func TestRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res := Minimize(f, []float64{-2, -2}, []float64{2, 2}, 3000)
	if res.F > 0.1 {
		t.Errorf("rosenbrock f=%v at %v", res.F, res.X)
	}
}

func TestBudgetRespected(t *testing.T) {
	calls := 0
	f := func(x []float64) float64 {
		calls++
		return x[0]
	}
	res := Minimize(f, []float64{0}, []float64{1}, 17)
	if calls > 17 {
		t.Errorf("made %d calls, budget 17", calls)
	}
	if res.Evals != calls {
		t.Errorf("Evals=%d, calls=%d", res.Evals, calls)
	}
}

func TestDegenerateBox(t *testing.T) {
	// zero-width dimension: lo == hi
	f := func(x []float64) float64 { return x[0]*x[0] + x[1] }
	res := Minimize(f, []float64{0, 2}, []float64{4, 2}, 100)
	if res.X[1] != 2 {
		t.Errorf("fixed dimension moved: %v", res.X)
	}
	if math.Abs(res.X[0]) > 0.2 {
		t.Errorf("free dimension not optimized: %v", res.X)
	}
}

func TestNaNTreatedAsInf(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] < 0.5 {
			return math.NaN()
		}
		return x[0]
	}
	res := Minimize(f, []float64{0}, []float64{1}, 100)
	if math.IsNaN(res.F) || math.IsInf(res.F, 0) {
		t.Errorf("best value %v; NaN region should be avoided", res.F)
	}
	if res.X[0] < 0.5 {
		t.Errorf("returned point in NaN region: %v", res.X)
	}
}

func TestPanicsOnBadBounds(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi []float64
	}{
		{"empty", nil, nil},
		{"mismatch", []float64{0}, []float64{1, 2}},
		{"inverted", []float64{1}, []float64{0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			Minimize(func(x []float64) float64 { return 0 }, c.lo, c.hi, 0)
		})
	}
}

func TestIntegerRoundedObjective(t *testing.T) {
	// Mimics RPM's use: the objective rounds to integer grid points
	// (SAX params). DIRECT must still find the best cell.
	f := func(x []float64) float64 {
		w := math.Round(x[0])
		p := math.Round(x[1])
		return math.Abs(w-17) + math.Abs(p-5)
	}
	res := Minimize(f, []float64{2, 2}, []float64{60, 12}, 400)
	if res.F > 0.5 {
		t.Errorf("integer objective best %v at %v", res.F, res.X)
	}
}

func TestResultInsideBoundsAndConsistent(t *testing.T) {
	// Property: the reported optimum lies inside the box and F matches a
	// re-evaluation of the objective at X.
	objectives := []func([]float64) float64{
		func(x []float64) float64 { return math.Sin(x[0]) + x[1]*x[1] },
		func(x []float64) float64 { return math.Abs(x[0]-1) * (2 + math.Cos(x[1]*3)) },
		func(x []float64) float64 { return -math.Exp(-(x[0]*x[0] + x[1]*x[1])) },
	}
	lo := []float64{-4, -2}
	hi := []float64{3, 5}
	for i, f := range objectives {
		res := Minimize(f, lo, hi, 300)
		for d := range lo {
			if res.X[d] < lo[d]-1e-9 || res.X[d] > hi[d]+1e-9 {
				t.Errorf("objective %d: X[%d]=%v outside [%v,%v]", i, d, res.X[d], lo[d], hi[d])
			}
		}
		if math.Abs(f(res.X)-res.F) > 1e-12 {
			t.Errorf("objective %d: F=%v but f(X)=%v", i, res.F, f(res.X))
		}
	}
}

func TestHalfDiag(t *testing.T) {
	// level 0 in 2-D: sides 1, half diagonal = sqrt(0.5)/... = sqrt(1/4+1/4)
	if d := halfDiag([]int{0, 0}); math.Abs(d-math.Sqrt(0.5)) > 1e-12 {
		t.Errorf("halfDiag([0,0]) = %v", d)
	}
	// one trisection shrinks that dimension's contribution by 9x
	d1 := halfDiag([]int{1, 0})
	want := math.Sqrt(1.0/36 + 0.25)
	if math.Abs(d1-want) > 1e-12 {
		t.Errorf("halfDiag([1,0]) = %v, want %v", d1, want)
	}
}
