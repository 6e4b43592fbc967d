package main

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv marks a child process of the test binary that runs main()
// with its own arguments instead of the tests.
const runMainEnv = "RPMSERVED_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// server returns a child process that runs main() on an ephemeral
// loopback port over an empty model directory, plus extra flags.
func server(ctx context.Context, t *testing.T, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-models", t.TempDir()}, extra...)
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// TestBadFlagValues: a flag value the serving layer would silently
// replace with its default is a usage error (exit 2 naming the flag),
// not a server that starts with settings nobody asked for.
func TestBadFlagValues(t *testing.T) {
	for _, bad := range [][]string{
		{"-queue", "0"},
		{"-queue", "-3"},
		{"-timeout", "0"},
		{"-max-streams", "0"},
		{"-max-streams", "-2"},
		{"-stream-chunk", "0"},
		{"-stream-confirm", "0"},
		{"-stream-refractory", "-5"},
		{"-drain-timeout", "0"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var stderr strings.Builder
		cmd := server(ctx, t, bad...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %s: err = %v, want exit 2 (stderr %q)", bad[0], bad[1], err, stderr.String())
			continue
		}
		msg, _, _ := strings.Cut(stderr.String(), "\n")
		if !strings.HasPrefix(msg, "rpmserved: "+bad[0]+" ") || !strings.Contains(msg, "must be") {
			t.Errorf("%s %s: message %q does not name the flag and its range", bad[0], bad[1], msg)
		}
	}
}

// TestUnboundedStreamsStarts: -max-streams -1 is the documented
// unbounded setting, so the server starts with it, logs the address it
// bound (a real port, not the requested :0) and answers there.
func TestUnboundedStreamsStarts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := server(ctx, t, "-max-streams", "-1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		_, rest, ok := strings.Cut(sc.Text(), "serving on ")
		if !ok {
			continue
		}
		addr, _, _ := strings.Cut(rest, " ")
		if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" {
			t.Fatalf("logged address %q is not a bound host:port", addr)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET /healthz at the logged address: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /healthz at %s: status %d, want 200", addr, resp.StatusCode)
		}
		return
	}
	t.Fatal("server exited or timed out before serving")
}
