package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rpm/internal/experiments/archive"
	"rpm/internal/svgplot"
)

// WriteFig7SVG renders the Figure 7 pairwise error scatters (one file per
// rival method) into dir, returning the written paths.
func WriteFig7SVG(dir string, rows []archive.Outcome, methods []string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, m := range methods {
		if m == MethodRPM {
			continue
		}
		va, vb, _ := PairedErrors(rows, m, MethodRPM)
		if len(va) == 0 {
			continue
		}
		chart := svgplot.ScatterChart{
			Title:    fmt.Sprintf("Fig. 7: %s vs RPM (p=%.3f)", m, Wilcoxon(rows, MethodRPM, m)),
			XLabel:   m + " error",
			YLabel:   "RPM error",
			Diagonal: true,
			Groups:   []svgplot.Points{{Name: "datasets", X: va, Y: vb}},
		}
		path := filepath.Join(dir, fmt.Sprintf("fig7_rpm_vs_%s.svg", sanitize(m)))
		if err := writeChart(path, chart); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// WriteFig8SVG renders the Figure 8 log-log runtime scatters into dir.
func WriteFig8SVG(dir string, rows []archive.Outcome) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, m := range []string{MethodLS, MethodFS} {
		xs, ys, _ := pairedTimes(rows, m)
		if len(xs) == 0 {
			continue
		}
		chart := svgplot.ScatterChart{
			Title:    fmt.Sprintf("Fig. 8: runtime, %s vs RPM (log-log)", m),
			XLabel:   m + " seconds",
			YLabel:   "RPM seconds",
			Diagonal: true,
			LogLog:   true,
			Groups:   []svgplot.Points{{Name: "datasets", X: xs, Y: ys}},
		}
		path := filepath.Join(dir, fmt.Sprintf("fig8_rpm_vs_%s.svg", sanitize(m)))
		if err := writeChart(path, chart); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// WriteFig9SVG renders the Figure 9 τ sweeps (runtime and error vs τ, one
// series per dataset) into dir.
func WriteFig9SVG(dir string, rows []archive.Outcome) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	timeChart := svgplot.LineChart{
		Title:  "Fig. 9: running time vs τ percentile",
		XLabel: "τ percentile",
		YLabel: "seconds",
	}
	errChart := svgplot.LineChart{
		Title:  "Fig. 9: classification error vs τ percentile",
		XLabel: "τ percentile",
		YLabel: "error",
	}
	for _, s := range tauSeries(rows) {
		timeChart.Series = append(timeChart.Series, svgplot.Series{Name: s.name, X: s.pct, Y: s.secs})
		errChart.Series = append(errChart.Series, svgplot.Series{Name: s.name, X: s.pct, Y: s.errs})
	}
	var paths []string
	for name, chart := range map[string]svgplot.LineChart{
		"fig9_time.svg":  timeChart,
		"fig9_error.svg": errChart,
	} {
		path := filepath.Join(dir, name)
		if err := writeChart(path, chart); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// chartRenderer is satisfied by both svgplot chart types.
type chartRenderer interface {
	Render(w io.Writer) error
}

func writeChart(path string, chart chartRenderer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := chart.Render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
