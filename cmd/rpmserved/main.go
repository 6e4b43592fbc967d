// Command rpmserved is the RPM inference server: it loads every saved
// classifier snapshot (*.json, written by Classifier.Save / rpmcli
// -save) from a model directory into a versioned, hot-reloadable
// registry and serves predictions over HTTP. A single prediction is
// admitted (at most -queue at once, beyond that 429) and computed on its
// request's own goroutine; a batch request fans out over -workers (see
// DESIGN.md §10).
//
// Usage:
//
//	rpmserved -models ./models -addr :8080
//
// Endpoints:
//
//	POST /v1/predict        {"model":"name","values":[...]}    → {"model","version","label"}
//	POST /v1/predict:batch  {"model":"name","series":[[...]]}  → {"model","version","labels"}
//	GET  /v1/models         list loaded models and versions
//	POST /v1/streams/{id}          append samples to a live stream (created on first touch)
//	GET  /v1/streams/{id}          stream state; DELETE closes the stream
//	GET  /v1/streams/{id}/events   SSE feed of committed class-change events (Last-Event-ID resume)
//	GET  /v1/streams               list live streams and their memory footprint
//	POST /admin/reload      re-scan the model directory (also SIGHUP)
//	GET  /healthz, /readyz  liveness / readiness
//	GET  /debug/obs         live serve.* counters, latency summaries, pools
//	GET  /debug/faults      armed chaos sites and the injected-fault log
//	     /debug/vars        expvar (includes rpm_obs), /debug/pprof/*
//
// The "model" field may be omitted when exactly one model is loaded.
// Hot reload (SIGHUP or POST /admin/reload) atomically swaps in changed
// snapshots; corrupt files are rejected and the previous version keeps
// serving. SIGTERM/SIGINT drains gracefully: /readyz flips to 503 the
// moment the drain begins (while /healthz stays 200), in-flight
// requests finish, new ones get 503.
//
// Chaos mode (-faults "site:p=0.5;...", -faults-seed N) arms the
// deterministic fault injector of DESIGN.md §13 inside the serving
// layer — model-load I/O errors, predict stalls, full admission,
// deadline exhaustion, response-write aborts. Same seed + spec
// reproduces the exact injected sequence. Never use in production.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rpm/internal/faults"
	"rpm/internal/obs"
	"rpm/internal/serve"
	"rpm/internal/stream"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		models       = flag.String("models", "", "directory of saved model snapshots (*.json); required")
		queueSize    = flag.Int("queue", 256, "/v1/predict requests admitted at once; one more sheds with 429")
		workers      = flag.Int("workers", 0, "predict fan-out per /v1/predict:batch request (0 = all cores, 1 = sequential)")
		timeout      = flag.Duration("timeout", 5*time.Second, "per-request deadline (admission + prediction)")
		maxStreams   = flag.Int("max-streams", 10000, "live-stream cap; creation beyond it sheds with 429 (-1 = unbounded)")
		streamChunk  = flag.Int("stream-chunk", 8192, "max samples per stream append; larger chunks get 413")
		streamK      = flag.Int("stream-confirm", 3, "hysteresis depth: consecutive agreeing samples before a class change commits")
		streamDead   = flag.Int("stream-refractory", 0, "post-commit dead time in samples during which no further change commits")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget on SIGTERM/SIGINT")
		noDebug      = flag.Bool("no-debug", false, "disable /debug/obs, /debug/vars and /debug/pprof")
		faultSpec    = flag.String("faults", "", "chaos fault-injection spec, e.g. \"store.load:p=0.5;server.predict:d=50ms:n=3\" (sites: "+strings.Join(faults.KnownSites(), ", ")+"); empty = off")
		faultSeed    = flag.Int64("faults-seed", 1, "fault-injection seed; same seed + spec reproduces the exact injected sequence")
	)
	flag.Parse()
	if *models == "" {
		fmt.Fprintln(os.Stderr, "rpmserved: -models is required (a directory of *.json snapshots)")
		flag.Usage()
		os.Exit(2)
	}
	inj, err := faults.New(*faultSeed, *faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpmserved: %v\n", err)
		os.Exit(2)
	}
	cfg := serve.Config{
		ModelDir:       *models,
		QueueSize:      *queueSize,
		Workers:        *workers,
		RequestTimeout: *timeout,
		MaxStreams:     *maxStreams,
		MaxStreamChunk: *streamChunk,
		Stream:         stream.Config{ConfirmWindows: *streamK, Refractory: *streamDead},
		Faults:         inj,
	}
	if err := run(*addr, cfg, *drainTimeout, !*noDebug, inj); err != nil {
		log.Fatalf("rpmserved: %v", err)
	}
}

func run(addr string, cfg serve.Config, drainTimeout time.Duration, debug bool, inj *faults.Injector) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	reg := srv.Obs()
	if inj != nil {
		log.Printf("CHAOS MODE: %s — not for production", inj)
	}
	for _, m := range srv.Store().Models() {
		log.Printf("loaded model %q v%d (%d patterns, classes %v) from %s",
			m.Name, m.Version, m.NumPatterns, m.Classes, m.Path)
	}
	if srv.Store().Len() == 0 {
		log.Printf("warning: no loadable models in %s; /readyz stays 503 until a reload finds one", cfg.ModelDir)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if debug {
		// The PR-3 debug surface: live instrumentation, expvar, pprof.
		mux.Handle("GET /debug/obs", obs.Handler(reg))
		// Chaos surface: armed sites and the injected-fault log (empty
		// arming and log when running without -faults).
		mux.HandleFunc("GET /debug/faults", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"armed":  inj.Armed(),
				"events": inj.Events(),
			})
		})
		expvar.Publish("rpm_obs", expvar.Func(func() any { return reg.Snapshot() }))
		mux.Handle("GET /debug/vars", expvar.Handler())
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	httpSrv := &http.Server{Addr: addr, Handler: mux}

	// SIGHUP → hot reload; SIGTERM/SIGINT → graceful drain.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			rep, err := srv.Reload()
			if err != nil {
				log.Printf("reload failed: %v", err)
				continue
			}
			log.Printf("reload: %d loaded, %d unchanged, %d kept-old, %d rejected, %d removed (%d serving)",
				len(rep.Loaded), len(rep.Unchanged), len(rep.KeptOld), len(rep.Rejected), len(rep.Removed), rep.Models)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s (models=%s queue=%d maxStreams=%d)",
			addr, cfg.ModelDir, cfg.QueueSize, cfg.MaxStreams)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case sig := <-stop:
		log.Printf("got %s, draining (budget %s)", sig, drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Order matters: flip /readyz to 503 immediately (load balancers stop
	// routing here while /healthz stays 200), then stop accepting and
	// finish in-flight handlers (http.Server.Shutdown), then close the
	// server and its streams (serve.Close).
	srv.BeginDrain()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(ctx); err != nil {
		return fmt.Errorf("draining server: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}
