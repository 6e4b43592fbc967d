package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv marks a child process of the test binary that runs main()
// with its own arguments instead of the tests.
const runMainEnv = "RPMARCHIVE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestJSONWithReports: -json -report json writes one JSON document per
// run, the result with the RPM row's report under "reports", not the
// result and a report list back to back.
func TestJSONWithReports(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-out", t.TempDir(), "-exp", "rpm", "-datasets", "SynItalyPower",
		"-mode", "fixed", "-window", "12", "-paa", "4", "-alpha", "4", "-json", "-report", "json")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("rpmarchive: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(strings.NewReader(string(stdout)))
	var doc struct {
		ConfigHash string            `json:"configHash"`
		Outcomes   []json.RawMessage `json:"outcomes"`
		Reports    []struct {
			Dataset string          `json:"dataset"`
			Report  json.RawMessage `json:"report"`
		} `json:"reports"`
	}
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("decoding stdout: %v\n%s", err, stdout)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		t.Fatalf("stdout holds more than one JSON document (next decode: %v)", err)
	}
	if doc.ConfigHash == "" || len(doc.Outcomes) != 1 {
		t.Errorf("result: configHash %q, %d outcomes, want a hash and 1 outcome", doc.ConfigHash, len(doc.Outcomes))
	}
	if len(doc.Reports) != 1 || doc.Reports[0].Dataset != "SynItalyPower" || len(doc.Reports[0].Report) == 0 {
		t.Errorf("reports = %+v, want exactly one, for SynItalyPower", doc.Reports)
	}
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		spec string
		k, n int
		ok   bool
	}{
		{"0/4", 0, 4, true},
		{"3/4", 3, 4, true},
		{"1/4x", 0, 0, false},
		{"4/4", 0, 0, false},
		{"-1/4", 0, 0, false},
		{"0/0", 0, 0, false},
		{"1", 0, 0, false},
		{"1/", 0, 0, false},
	} {
		k, n, err := parseShard(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("parseShard(%q) error = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if k != tc.k || n != tc.n {
			t.Errorf("parseShard(%q) = %d/%d, want %d/%d", tc.spec, k, n, tc.k, tc.n)
		}
	}
}

// TestJSONWithTextReportIsUsageError: -json -report text would print the
// text reports after the JSON document, which no JSON reader accepts;
// it exits 2 with a usage message, as an unknown -report format does,
// before any training runs.
func TestJSONWithTextReportIsUsageError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-out", t.TempDir(), "-exp", "rpm", "-datasets", "SynItalyPower",
		"-json", "-report", "text")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2\nstderr: %s", err, stderr.String())
	}
	if len(stdout) != 0 || !strings.Contains(stderr.String(), "-report json, not text") {
		t.Errorf("stdout %q, stderr %q: want no output and the usage message", stdout, stderr.String())
	}
}
