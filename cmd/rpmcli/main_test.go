package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rpm"
	"rpm/internal/dataset"
)

// runMainEnv marks a child process of the test binary that runs main()
// with its own arguments instead of the tests.
const runMainEnv = "RPMCLI_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs main() in a child process with args and returns its exit
// code, stdout and stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("run rpmcli: %v", err)
	return 0, "", ""
}

// TestMotifsRequiresTrain: -motifs mines the training set, so with a
// loaded model and no -train it must fail with a usage error instead of
// mining nothing and exiting 0.
func TestMotifsRequiresTrain(t *testing.T) {
	dir := t.TempDir()
	split := rpm.GenerateDataset("SynCBF", 1)
	testPath := filepath.Join(dir, "SynCBF_TEST")
	if err := dataset.WriteFile(testPath, split.Test); err != nil {
		t.Fatal(err)
	}
	opts := rpm.DefaultOptions()
	opts.Mode = rpm.ParamFixed
	opts.Params = rpm.SAXParams{Window: 30, PAA: 5, Alphabet: 4}
	clf, err := rpm.Train(split.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "m.json")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, "-load", modelPath, "-test", testPath,
		"-motifs", "-mode", "fixed", "-window", "30", "-paa", "5", "-alpha", "4")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if want := "rpmcli: -motifs requires -train"; !strings.Contains(stderr, want) {
		t.Fatalf("stderr = %q, want it to contain %q", stderr, want)
	}
}

// TestMotifsWithoutTest: motif discovery reads only the training set, so
// -motifs needs no -test.
func TestMotifsWithoutTest(t *testing.T) {
	trainPath := filepath.Join(t.TempDir(), "SynCBF_TRAIN")
	if err := dataset.WriteFile(trainPath, rpm.GenerateDataset("SynCBF", 1).Train); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, "-train", trainPath,
		"-motifs", "-mode", "fixed", "-window", "30", "-paa", "5", "-alpha", "4")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stdout %q, stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "class ") {
		t.Fatalf("stdout = %q, want per-class motif lines", stdout)
	}
}
