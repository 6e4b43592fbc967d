package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// feedStream drives the streaming kernel exactly as a caller would: one
// RollingStats per window length, one StreamScan per matcher, windows
// read from the growing series.
func feedStream(m *Matcher, series []float64) Match {
	n := m.Len()
	rs := NewRollingStats(n)
	sc := NewStreamScan()
	for t, x := range series {
		var out float64
		if rs.Full() {
			out = series[t-n]
		}
		mean, inv, ok := rs.Push(x, out)
		if !ok {
			continue
		}
		pos := t + 1 - n
		m.StreamEval(&sc, series[pos:t+1], mean, inv, pos)
	}
	return m.StreamMatch(&sc)
}

// genStreamSeries builds the hostile regimes the streaming kernel must
// agree with the batch kernel on: smooth walks, constant stretches
// (inv == 0 sentinel), exact repeats (distance ties), and NaN runs.
func genStreamSeries(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	x := rng.NormFloat64()
	hold := 0 // remaining samples of a constant stretch
	for i := range v {
		if hold > 0 {
			hold--
			v[i] = x
			continue
		}
		switch rng.Intn(8) {
		case 0: // constant stretch (exercises the inv == 0 sentinel)
			hold = 1 + rng.Intn(8)
			v[i] = x
		case 1: // jump
			x = rng.NormFloat64() * 10
			v[i] = x
		case 2: // exact repeat of an earlier sample (tie fodder)
			if i > 0 {
				v[i] = v[rng.Intn(i)]
				x = v[i]
			} else {
				v[i] = x
			}
		case 3:
			if rng.Intn(4) == 0 {
				v[i] = math.NaN()
			} else {
				x += rng.NormFloat64()
				v[i] = x
			}
		default: // random walk
			x += rng.NormFloat64()
			v[i] = x
		}
	}
	return v
}

// TestStreamBitIdenticalToBest pins the streaming contract: feeding a
// series sample-by-sample yields bit-identical Dist AND Pos to the
// batch Best contract as the oracle kernel computes it, across smooth,
// constant, tie-heavy and NaN-bearing regimes.
func TestStreamBitIdenticalToBest(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func() bool {
		n := 2 + rng.Intn(24)
		sn := n + rng.Intn(120) // series at least as long as the pattern
		pat := genStreamSeries(rng, n)
		series := genStreamSeries(rng, sn)
		m := NewMatcher(pat)
		want := oracleBest(m, series)
		if got := feedStream(m, series); !sameMatch(got, want) {
			t.Logf("got %+v want %+v (n=%d sn=%d)", got, want, n, sn)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamShortSeries pins the no-role-swap contract: a stream shorter
// than the pattern reports +Inf / -1 (Best would slide the series inside
// the pattern instead — a whole-series semantic a stream cannot have).
func TestStreamShortSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pat := genStreamSeries(rng, 16)
	m := NewMatcher(pat)
	for sn := 0; sn < 16; sn++ {
		got := feedStream(m, genStreamSeries(rng, sn))
		if !math.IsInf(got.Dist, 1) || got.Pos != -1 {
			t.Fatalf("short series len %d: got %v, want {+Inf,-1}", sn, got)
		}
	}
}

// TestRollingStatsMatchesWindowStats pins that the rolling recurrence
// and WindowStats.compute both yield exactly the oracle kernel's
// (mean, inv) sequence — the foundation every equivalence stands on.
func TestRollingStatsMatchesWindowStats(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(16)
		series := genStreamSeries(rng, n+rng.Intn(80))
		means, invs := oracleStats(series, n)
		var ws WindowStats
		ws.compute(series, n)
		if ws.Windows() != len(means) {
			t.Fatalf("batch yielded %d windows, oracle %d", ws.Windows(), len(means))
		}
		rs := NewRollingStats(n)
		w := 0
		for t2, x := range series {
			var out float64
			if rs.Full() {
				out = series[t2-n]
			}
			mean, inv, ok := rs.Push(x, out)
			if !ok {
				continue
			}
			for _, got := range [][2]float64{{mean, inv}, {ws.mean[w], ws.inv[w]}} {
				if math.Float64bits(got[0]) != math.Float64bits(means[w]) ||
					math.Float64bits(got[1]) != math.Float64bits(invs[w]) {
					t.Fatalf("window %d (n=%d): (%v,%v) != oracle (%v,%v)",
						w, n, got[0], got[1], means[w], invs[w])
				}
			}
			w++
		}
		if w != len(means) {
			t.Fatalf("rolling yielded %d windows, oracle %d", w, len(means))
		}
	}
}

// TestRollingStatsPanics pins the constructor contract.
func TestRollingStatsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRollingStats(0) did not panic")
		}
	}()
	NewRollingStats(0)
}
