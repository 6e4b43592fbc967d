package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// runs builds one perfbench result per value of the metric "m".
func runs(t *testing.T, values ...float64) []run {
	t.Helper()
	var out []run
	for _, v := range values {
		var r run
		if err := json.Unmarshal([]byte(fmt.Sprintf(`{"correct":true,"attempted":1,"metrics":{"m":{"value":%g,"unit":"1/s"}}}`, v)), &r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func TestVerdicts(t *testing.T) {
	higher := spec{Name: "m", Better: "higher", Bound: 0.25}
	for _, tc := range []struct {
		name         string
		base, change []float64
		want         string
	}{
		{"gain", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "gain"},
		{"win share below nine tenths", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, []float64{120, 121, 119, 120, 122, 118, 120, 121, 50, 50}, "within"},
		{"worse than the bound", []float64{100, 100, 100, 100}, []float64{70, 70, 70, 70}, "worse"},
		{"spread wider than the bound", []float64{100, 50, 150, 100}, []float64{95, 45, 145, 95}, "unresolved"},
		{"every change run better", []float64{100, 50, 60, 70}, []float64{160, 170, 180, 190}, "gain"},
		{"small loss inside the bound", []float64{100, 100, 101, 100}, []float64{95, 96, 95, 95}, "within"},
	} {
		r, ok := compare("m", higher, runs(t, tc.base...), runs(t, tc.change...))
		if !ok {
			t.Fatalf("%s: metric reported absent", tc.name)
		}
		if got := r.verdict(); got != tc.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", tc.name, got, tc.want, r)
		}
	}
}

// TestReport: end-to-end metrics come first with a verdict, other
// metrics follow by name, and an incorrect run fails the report.
func TestReport(t *testing.T) {
	b := benchmark{EndToEnd: []spec{{Name: "m", Better: "higher", Bound: 0.25}}}
	base, change := runs(t, 1, 2), runs(t, 3, 4)
	for i := range base {
		base[i].Metrics["a"], change[i].Metrics["a"] = base[i].Metrics["m"], change[i].Metrics["m"]
	}
	var out strings.Builder
	if !report(&out, b, base, change) {
		t.Fatalf("correct runs reported incorrect:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[3], "m ") || !strings.Contains(lines[3], "2/2") || !strings.HasPrefix(lines[4], "a ") {
		t.Fatalf("unexpected table:\n%s", out.String())
	}
	change[1].Correct = false
	if report(&strings.Builder{}, b, base, change) {
		t.Fatal("an incorrect change run passed")
	}
}
