package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rpm"
	"rpm/internal/obs"
)

// server is a running rpmserved child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	logf   *os.File
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	client *http.Client
}

// serverFlags are the rpmserved settings every workload uses: the
// defaults (2 ms batch delay, batch of 16, all cores), plus a stream
// hysteresis of one sample so a stream's committed label is always the
// label of everything appended so far.
var serverFlags = []string{"-stream-confirm", "1", "-max-streams", "4096"}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin over modelDir and waits until /readyz
// answers 200. Its log goes to logPath.
func startServer(bin, modelDir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-models", modelDir}, serverFlags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	// The server dies with the benchmark even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{}), client: newClient(1)}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.exited:
			logf.Close()
			return nil, fmt.Errorf("rpmserved exited before ready: %v (log %s)", s.err, logPath)
		default:
		}
		if _, err := get(context.Background(), s.client, s.base+"/readyz"); err == nil {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("rpmserved not ready after 30s (log %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, kills it if it has not exited
// within ten seconds, and waits for it either way.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
	s.logf.Close()
	var exit *exec.ExitError
	if s.err != nil && !errors.As(s.err, &exit) {
		return s.err
	}
	return nil
}

// cpu is the CPU time the server process has used so far.
func (s *server) cpu() time.Duration { return procCPU(s.cmd.Process.Pid) }

// obs fetches the server's live instrumentation.
func (s *server) obs(ctx context.Context) (*obs.Snapshot, error) {
	b, err := get(ctx, s.client, s.base+"/debug/obs")
	if err != nil {
		return nil, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, fmt.Errorf("decoding /debug/obs: %w", err)
	}
	return &snap, nil
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process
// ("self" or a pid) in MiB; 0 when /proc has no such entry.
func peakRSSMB(pid string) float64 {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// obsDelta is the change in a server's instrumentation across a phase.
type obsDelta struct{ before, after *obs.Snapshot }

func (d obsDelta) counter(name string) float64 {
	return float64(d.after.Counter(name) - d.before.Counter(name))
}

// summaryMean is the exact mean of the observations a summary took
// during the phase, in milliseconds.
func (d obsDelta) summaryMean(name string) float64 {
	a, b := d.after.Summary(name), d.before.Summary(name)
	if a == nil {
		return 0
	}
	var n, sum int64 = a.Count, a.SumNS
	if b != nil {
		n, sum = n-b.Count, sum-b.SumNS
	}
	return frac(float64(sum), float64(n)) / 1e6
}

// poolBusy is the busy time a worker pool accumulated during the phase.
func (d obsDelta) poolBusy(name string) time.Duration {
	var busy int64
	for _, p := range d.after.Pools {
		if p.Name == name {
			busy += p.BusyNS
		}
	}
	for _, p := range d.before.Pools {
		if p.Name == name {
			busy -= p.BusyNS
		}
	}
	return time.Duration(busy)
}

// servedModel is one snapshot the server loads, with the in-process
// classifier loaded from the same bytes as the reference.
type servedModel struct {
	name  string
	split rpm.Split
	ref   *rpm.Classifier
}

// serveDatasets are the two served models: SynItalyPower (24 samples,
// few patterns: HTTP and batcher costs dominate) and SynCinCECG (250
// samples, many patterns: compute dominates).
var serveDatasets = []struct{ name, dataset string }{
	{"short", "SynItalyPower"},
	{"long", "SynCinCECG"},
}

// setupServer generates the served datasets, trains each with fixed
// heuristic SAX parameters, saves the snapshots, loads them back as the
// in-process reference and starts rpmserved over them.
func setupServer(cfg config) ([]servedModel, *server, error) {
	dir := filepath.Join(cfg.workdir, "models")
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	var models []servedModel
	for _, d := range serveDatasets {
		split := generate([]string{d.dataset}, cfg.seed)[0]
		opts := rpm.DefaultOptions()
		opts.Mode = rpm.ParamFixed
		clf, err := rpm.Train(split.Train, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("training %s: %w", d.dataset, err)
		}
		path := filepath.Join(dir, d.name+".json")
		if err := saveModel(clf, path); err != nil {
			return nil, nil, err
		}
		ref, err := loadModel(path)
		if err != nil {
			return nil, nil, err
		}
		models = append(models, servedModel{name: d.name, split: split, ref: ref})
	}
	srv, err := startServer(cfg.server, dir, filepath.Join(cfg.workdir, "rpmserved.log"))
	if err != nil {
		return nil, nil, err
	}
	return models, srv, nil
}

func saveModel(clf *rpm.Classifier, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := clf.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("saving %s: %w", path, err)
	}
	return f.Close()
}

func loadModel(path string) (*rpm.Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rpm.LoadClassifier(f)
}

// setupServed runs the server set-up five times, keeping the last
// server running, and returns the median set-up time in seconds.
func setupServed(cfg config) ([]servedModel, *server, float64, error) {
	var models []servedModel
	var srv *server
	const reps = 5
	walls := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		models, srv, err = setupServer(cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return models, srv, median(walls), nil
}
