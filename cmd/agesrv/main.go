// Command agesrv is the aging-experiment daemon: it serves the HTTP
// JSON API of internal/jobs over a crash-safe, WAL-backed job queue.
// An acknowledged submission is never lost — kill the process at any
// instant and the restarted daemon replays its queue log, resumes
// in-flight jobs from their latest checkpoint, and produces results
// byte-identical to an uninterrupted run (scripts/agesrv_smoke.sh
// demonstrates exactly that with a real SIGKILL).
//
//	agesrv -dir /var/lib/agesrv -addr :8377
//
// Submit work and read results with plain curl:
//
//	curl -d '{"days":30,"seed":7}' localhost:8377/jobs
//	curl localhost:8377/jobs/job-000001
//	curl localhost:8377/jobs/job-000001/events?follow=1
//	curl localhost:8377/jobs/job-000001/result
//	curl localhost:8377/jobs/job-000001/spans
//	curl -O localhost:8377/jobs/job-000001/image
//
// The daemon also serves an operational surface: Prometheus-format
// telemetry at /metrics, liveness at /healthz, readiness at /readyz
// (503 while draining or after a WAL write failure), and — with
// -pprof — the standard profiling endpoints under /debug/pprof/.
//
// SIGTERM drains gracefully: running jobs checkpoint at their exact
// operation cursor and stay marked in-flight, so the next start picks
// them up with no work lost and no work repeated.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ffsage/internal/faults"
	"ffsage/internal/jobs"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8377", "HTTP listen address")
		dir        = flag.String("dir", "agesrv-state", "state directory (queue WAL, checkpoints, artifacts)")
		workers    = flag.Int("workers", 2, "concurrently running jobs")
		maxPending = flag.Int("max-pending", 64, "queued-job bound before submissions shed with 429")
		pprof      = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (trusted networks only)")
	)
	flag.Parse()
	if err := run(*addr, *dir, *workers, *maxPending, *pprof); err != nil {
		fmt.Fprintln(os.Stderr, "agesrv:", err)
		os.Exit(1)
	}
}

func run(addr, dir string, workers, maxPending int, pprofOn bool) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "agesrv: "+format+"\n", args...)
	}
	m, err := jobs.Open(jobs.Options{
		Dir:        dir,
		Workers:    workers,
		MaxPending: maxPending,
		Logf:       logf,
		// A fault-plan crash simulates sudden process death, so die for
		// real: skip every drain path, leaving the queue record Running
		// and the checkpoint as-is. Exit 3 mirrors fsimg age's crash
		// status so harnesses can tell a planned crash from a failure.
		OnCrash: func(id string, c *faults.Crash) {
			logf("%s: %v; dying as planned", id, c)
			os.Exit(3)
		},
	})
	if err != nil {
		return err
	}

	handler := m.Handler()
	if pprofOn {
		// Opt-in only: profiling endpoints expose heap contents and can
		// stall the process, so they never ship on by default.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logf("pprof enabled under /debug/pprof/")
	}
	srv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	logf("listening on %s, state in %s", addr, dir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errc:
		m.Close()
		return err
	case <-ctx.Done():
	}
	logf("shutting down: draining workers to checkpoints")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logf("http shutdown: %v", err)
	}
	if err := m.Close(); err != nil {
		return err
	}
	logf("state persisted; in-flight jobs will resume on next start")
	return nil
}
