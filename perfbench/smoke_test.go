package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecMatchesBenchmarkJSON pins the metric declarations to the
// repository's BENCHMARK.json: same names, units and directions.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
		Work     []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, benchmark %v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Work {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames())
	}
}

// TestSmokeAllWorkloads runs every workload for a moment against a
// freshly built rpmserved and requires a correct, complete result.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rpmserved and trains the mix")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rpmserved")
	if out, err := exec.Command("go", "build", "-o", bin, "rpm/cmd/rpmserved").CombinedOutput(); err != nil {
		t.Fatalf("building rpmserved: %v\n%s", err, out)
	}
	for _, c := range []struct {
		workload string
		trace    bool
	}{
		{"serve", false}, {"serve", true}, {"stream", false}, {"stream", true}, {"train", false},
	} {
		cfg := config{workload: c.workload, seed: 3, seconds: 0.5, trace: c.trace, server: bin, workdir: filepath.Join(dir, "run")}
		if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
			t.Fatal(err)
		}
		res, err := workloads[c.workload](cfg)
		if err != nil {
			t.Fatalf("%s trace=%t: %v", c.workload, c.trace, err)
		}
		want := endToEnd
		if c.trace {
			want = perLayer
		}
		res.checkComplete(want)
		var out strings.Builder
		if !emit(&out, res) {
			t.Errorf("%s trace=%t: not correct:\n%s", c.workload, c.trace, out.String())
		}
	}
}
