package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"realtor/internal/buildinfo"
	"realtor/internal/httpapi"
	"realtor/internal/runsvc"
)

// This file is realtor-scen's serve subcommand, the run daemon: an
// HTTP/JSON front end (internal/httpapi) over the internal/runsvc run
// service. It queues scenario runs on a bounded worker pool, enforces
// per-run resource caps, streams live progress, and keeps an
// append-only run history that survives restarts. `run` stays the
// source of truth for one-shot local runs; the daemon exists so long
// sweeps and CI gates can share one machine without trampling each
// other, and `run -server URL` is its thin client.
//
// API:
//
//	POST   /runs               submit {"package":...}|{"spec":...}
//	GET    /runs               list every run, past and present
//	GET    /runs/{id}          one run's snapshot
//	DELETE /runs/{id}          cancel (queued or running)
//	GET    /runs/{id}/events   server-sent-event stream of snapshots
//	GET    /runs/{id}/summary  canonical summary bytes (realtor-scen run -json form)
//	GET    /compare?a=X&b=Y    golden-machinery diff of two summaries
//	GET    /healthz            liveness + build identity
//	GET    /metrics            counters, text form
//
// Exit status: 0 once ctx is cancelled (main cancels it on SIGINT or
// SIGTERM) and the daemon has drained, 1 on any setup or serve error, 2
// on a usage error.

// runServe boots the daemon and serves until ctx is done. The first
// line on out names the bound address, so `-addr 127.0.0.1:0` is usable.
func runServe(ctx context.Context, args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(errw)
	addr := fs.String("addr", ":7070", "listen address")
	dir := fs.String("dir", "scenarios", "package root directory")
	history := fs.String("history", "", "append-only run-history JSONL file (empty = in-memory)")
	workers := fs.Int("workers", 2, "concurrent run workers")
	queue := fs.Int("queue", 16, "queued submissions beyond the running ones")
	maxNodes := fs.Int("max-nodes", 0, "reject scenarios with more nodes (0 = unlimited)")
	maxNodeSeconds := fs.Float64("max-node-seconds", 0, "reject scenarios costing more nodes x duration (0 = unlimited)")
	maxWall := fs.Duration("max-wall", 0, "fail runs exceeding this wall-clock time (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(errw, "realtor-scen: serve takes no arguments (got %q)\n", fs.Args())
		return 2
	}

	svc, err := runsvc.New(runsvc.Config{
		ScenarioRoot:   *dir,
		HistoryPath:    *history,
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxNodes:       *maxNodes,
		MaxNodeSeconds: *maxNodeSeconds,
		MaxWall:        *maxWall,
	})
	if err != nil {
		fmt.Fprintf(errw, "realtor-scen: %v\n", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		fmt.Fprintf(errw, "realtor-scen: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: httpapi.New(svc)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(out, "realtor-scen serve %s listening on %s (scenarios %s)\n",
		buildinfo.Get().String(), ln.Addr(), *dir)

	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "realtor-scen serve: draining")
		// Stop the run service first: cancelling active runs closes their
		// watch channels, which ends in-flight SSE streams — otherwise
		// Shutdown would wait on streams that only end when runs do.
		svc.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(errw, "realtor-scen: shutdown: %v\n", err)
			return 1
		}
		return 0
	case err := <-errc:
		// Serve returns before Shutdown only on a listener failure.
		svc.Close()
		fmt.Fprintf(errw, "realtor-scen: %v\n", err)
		return 1
	}
}
