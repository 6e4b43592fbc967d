package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"rpm/internal/experiments/archive"
)

// writeRanked renders one row per dataset with each method's metric
// (format valueFmt), the per-dataset winner starred, and a final row
// counting each method's wins under bestLabel.
func writeRanked(b *strings.Builder, rows []archive.Outcome, methods []string, metric func(archive.Outcome) float64, valueFmt, bestLabel string) {
	w := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Dataset")
	for _, m := range methods {
		fmt.Fprintf(w, "\t%s", m)
	}
	fmt.Fprintln(w)
	for _, dr := range byDataset(rows) {
		best := bestValue(dr, methods, metric)
		fmt.Fprintf(w, "%s", dr.name)
		for _, m := range methods {
			r, ok := dr.rows[m]
			if !ok {
				fmt.Fprintf(w, "\t-")
				continue
			}
			mark := ""
			if metric(r) <= best+1e-12 {
				mark = "*"
			}
			fmt.Fprintf(w, "\t"+valueFmt+"%s", metric(r), mark)
		}
		fmt.Fprintln(w)
	}
	counts := BestCounts(rows, methods, metric)
	fmt.Fprintf(w, "%s", bestLabel)
	for _, m := range methods {
		fmt.Fprintf(w, "\t%d", counts[m])
	}
	fmt.Fprintln(w)
	w.Flush()
}

// FormatTable1 renders the paper's Table 1: per-dataset classification
// error rates for every method, the per-dataset winner in context, the
// "# of best" row, and the Wilcoxon p-values RPM vs. each rival.
func FormatTable1(rows []archive.Outcome, methods []string) string {
	var b strings.Builder
	b.WriteString("Table 1: classification error rates (synthetic UCR-style suite)\n")
	writeRanked(&b, rows, methods, ErrMetric, "%.3f", "# of best (incl. ties)")
	b.WriteString("\nWilcoxon signed-rank p-values (RPM vs rival):\n")
	for _, m := range methods {
		if m == MethodRPM {
			continue
		}
		b.WriteString(fmt.Sprintf("  RPM vs %-8s p = %.4f\n", m, Wilcoxon(rows, MethodRPM, m)))
	}
	return b.String()
}

// FormatTable2 renders the paper's Table 2: total running time
// (train + classify) of the three pattern-learning methods, plus the
// "# best" row and the speedup statistics quoted in §5.3.
func FormatTable2(rows []archive.Outcome) string {
	var b strings.Builder
	b.WriteString("Table 2: running time in seconds (train + classify)\n")
	writeRanked(&b, rows, []string{MethodLS, MethodFS, MethodRPM}, TimeMetric, "%.2f", "# best (incl. ties)")
	var speedups []float64
	for _, dr := range byDataset(rows) {
		ls, okLS := dr.rows[MethodLS]
		rpm, okRPM := dr.rows[MethodRPM]
		if okLS && okRPM && TimeMetric(rpm) > 0 {
			speedups = append(speedups, TimeMetric(ls)/TimeMetric(rpm))
		}
	}
	if len(speedups) > 0 {
		maxS, sum := speedups[0], 0.0
		for _, s := range speedups {
			if s > maxS {
				maxS = s
			}
			sum += s
		}
		b.WriteString(fmt.Sprintf("\nRPM speedup over LS: max %.0fx, mean %.0fx (paper: 587x max, 78x mean)\n",
			maxS, sum/float64(len(speedups))))
	}
	return b.String()
}

// FormatFig7 renders the data behind Figure 7: the pairwise error
// comparison of RPM against each rival — per-dataset (x, y) pairs, the
// win/tie/loss counts that the scatter conveys, and the Wilcoxon p-value.
func FormatFig7(rows []archive.Outcome, methods []string) string {
	var b strings.Builder
	b.WriteString("Figure 7: pairwise error comparison, RPM (y) vs rival (x)\n")
	for _, m := range methods {
		if m == MethodRPM {
			continue
		}
		va, vb, names := PairedErrors(rows, m, MethodRPM)
		if len(va) == 0 {
			continue
		}
		wins, ties, losses := 0, 0, 0
		b.WriteString(fmt.Sprintf("\n-- RPM vs %s (p = %.4f) --\n", m, Wilcoxon(rows, MethodRPM, m)))
		for i := range va {
			rel := "tie"
			switch {
			case vb[i] < va[i]:
				rel = "RPM wins"
				wins++
			case vb[i] > va[i]:
				rel = fmt.Sprintf("%s wins", m)
				losses++
			default:
				ties++
			}
			b.WriteString(fmt.Sprintf("  %-18s x=%.3f y=%.3f  %s\n", names[i], va[i], vb[i], rel))
		}
		b.WriteString(fmt.Sprintf("  summary: RPM wins %d, ties %d, %s wins %d\n", wins, ties, m, losses))
	}
	return b.String()
}

// FormatFig8 renders the data behind Figure 8: log-runtime scatter of RPM
// against LS and FS.
func FormatFig8(rows []archive.Outcome) string {
	var b strings.Builder
	b.WriteString("Figure 8: pairwise runtime comparison (seconds, log-scale scatter data)\n")
	for _, m := range []string{MethodLS, MethodFS} {
		b.WriteString(fmt.Sprintf("\n-- %s (x) vs RPM (y) --\n", m))
		xs, ys, names := pairedTimes(rows, m)
		wins := 0
		for i := range xs {
			rel := m + " faster"
			if ys[i] < xs[i] {
				rel = "RPM faster"
				wins++
			}
			b.WriteString(fmt.Sprintf("  %-18s x=%.2f y=%.2f  %s\n", names[i], xs[i], ys[i], rel))
		}
		b.WriteString(fmt.Sprintf("  summary: RPM faster on %d/%d datasets\n", wins, len(xs)))
	}
	return b.String()
}

// pairedTimes extracts the aligned per-dataset train + classify seconds
// of rival m (xs) and RPM (ys).
func pairedTimes(rows []archive.Outcome, m string) (xs, ys []float64, names []string) {
	for _, dr := range byDataset(rows) {
		rm, ok1 := dr.rows[m]
		rr, ok2 := dr.rows[MethodRPM]
		if ok1 && ok2 {
			xs = append(xs, TimeMetric(rm))
			ys = append(ys, TimeMetric(rr))
			names = append(names, dr.name)
		}
	}
	return xs, ys, names
}
