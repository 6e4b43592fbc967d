package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rpm/internal/experiments/archive"
)

func fakeResults() []archive.Outcome {
	return []archive.Outcome{
		row("a", MethodNNED, 0.3, 1), row("a", MethodLS, 0.1, 4), row("a", MethodFS, 0.2, 0.5), row("a", MethodRPM, 0.05, 2),
		row("b", MethodNNED, 0.4, 1), row("b", MethodLS, 0.3, 6), row("b", MethodFS, 0.25, 1), row("b", MethodRPM, 0.2, 3),
		row("c", MethodNNED, 0.1, 1), row("c", MethodLS, 0.15, 5), row("c", MethodFS, 0.3, 1), row("c", MethodRPM, 0.1, 1),
	}
}

func TestWriteFig7SVG(t *testing.T) {
	dir := t.TempDir()
	paths, err := WriteFig7SVG(dir, fakeResults(), []string{MethodNNED, MethodRPM})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	content, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(content), "<svg") || !strings.Contains(string(content), "circle") {
		t.Error("fig7 SVG malformed")
	}
}

func TestWriteFig8SVG(t *testing.T) {
	dir := t.TempDir()
	paths, err := WriteFig8SVG(dir, fakeResults())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing %s", p)
		}
	}
}

func TestWriteFig9SVG(t *testing.T) {
	dir := t.TempDir()
	sweep := []archive.Outcome{
		row("x", tauMethod(10), 0.1, 1),
		row("x", tauMethod(30), 0.12, 0.8),
		row("x", tauMethod(50), 0.12, 0.7),
	}
	paths, err := WriteFig9SVG(dir, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	want := map[string]bool{"fig9_time.svg": true, "fig9_error.svg": true}
	for _, p := range paths {
		if !want[filepath.Base(p)] {
			t.Errorf("unexpected file %s", p)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("NN-ED/2"); got != "NN_ED_2" {
		t.Errorf("sanitize = %q", got)
	}
}
