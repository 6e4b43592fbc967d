package experiments

import (
	"fmt"
	"strings"

	"rpm/internal/experiments/archive"
)

// TauPercentiles are the similarity-threshold settings swept by the
// paper's Table 3 and Figure 9.
var TauPercentiles = []float64{10, 30, 50, 70, 90}

// TauMethods returns one RPM method per τ percentile (paper §5.3, Table
// 3 / Fig. 9), in TauPercentiles order. The runner trains a dataset's
// methods back to back, so consecutive-percentile time ratios (Table 3)
// are measured under the same load.
func TauMethods(cfg Config) []archive.Method {
	out := make([]archive.Method, 0, len(TauPercentiles))
	for _, pct := range TauPercentiles {
		o := rpmOptions(cfg)
		o.TauPercentile = pct
		out = append(out, archive.RPM(tauMethod(pct), o))
	}
	return out
}

// tauMethod names the τ-percentile method.
func tauMethod(pct float64) string { return fmt.Sprintf("tau-%g", pct) }

// FormatTable3 renders the paper's Table 3: the average percent change of
// running time and classification error between consecutive τ settings.
func FormatTable3(rows []archive.Outcome) string {
	var b strings.Builder
	b.WriteString("Table 3: average running-time and error change for different τ percentiles\n")
	b.WriteString("(positive = increase, negative = decrease)\n\n")
	steps := len(TauPercentiles) - 1
	timeChange := make([]float64, steps)
	errChange := make([]float64, steps)
	counts := make([]int, steps)
	for _, dr := range byDataset(rows) {
		for i := 0; i < steps; i++ {
			prev, okP := dr.rows[tauMethod(TauPercentiles[i])]
			next, okN := dr.rows[tauMethod(TauPercentiles[i+1])]
			if !okP || !okN {
				continue
			}
			if pt := TimeMetric(prev); pt > 0 {
				timeChange[i] += 100 * (TimeMetric(next) - pt) / pt
			}
			// error change in absolute percentage points, as in the paper
			errChange[i] += 100 * (next.ErrorRate() - prev.ErrorRate())
			counts[i]++
		}
	}
	header := "Metric"
	for i := 0; i < steps; i++ {
		header += fmt.Sprintf("\t%.0f%%-%.0f%%", TauPercentiles[i], TauPercentiles[i+1])
	}
	names := []string{"Running Time Change (%)", "Error Change (points)"}
	b.WriteString(header + "\n")
	for r, row := range [][]float64{timeChange, errChange} {
		line := names[r]
		for i := 0; i < steps; i++ {
			v := 0.0
			if counts[i] > 0 {
				v = row[i] / float64(counts[i])
			}
			line += fmt.Sprintf("\t%+.2f", v)
		}
		b.WriteString(line + "\n")
	}
	return strings.ReplaceAll(b.String(), "\t", "   ")
}

// FormatFig9 renders the data behind Figure 9: per-dataset running time
// and error as functions of the τ percentile.
func FormatFig9(rows []archive.Outcome) string {
	var b strings.Builder
	b.WriteString("Figure 9: running time (s) and error as functions of τ percentile\n")
	for _, s := range tauSeries(rows) {
		b.WriteString(fmt.Sprintf("\n-- %s --\n", s.name))
		b.WriteString("  tau%:  ")
		for _, p := range s.pct {
			b.WriteString(fmt.Sprintf("%8.0f", p))
		}
		b.WriteString("\n  time:  ")
		for _, t := range s.secs {
			b.WriteString(fmt.Sprintf("%8.2f", t))
		}
		b.WriteString("\n  error: ")
		for _, e := range s.errs {
			b.WriteString(fmt.Sprintf("%8.3f", e))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// series is one dataset's τ sweep: the percentiles it ran and, per
// percentile, the train + classify seconds and the error.
type series struct {
	name            string
	pct, secs, errs []float64
}

// tauSeries extracts the per-dataset τ sweeps from the runner's rows.
func tauSeries(rows []archive.Outcome) []series {
	var out []series
	for _, dr := range byDataset(rows) {
		s := series{name: dr.name}
		for _, pct := range TauPercentiles {
			if r, ok := dr.rows[tauMethod(pct)]; ok {
				s.pct = append(s.pct, pct)
				s.secs = append(s.secs, TimeMetric(r))
				s.errs = append(s.errs, r.ErrorRate())
			}
		}
		out = append(out, s)
	}
	return out
}
