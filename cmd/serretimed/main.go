// Command serretimed is the batch-retiming daemon: an HTTP service that
// accepts netlists (.bench/.blif/.v), solves them through the
// RetimeRobust degradation chain on a bounded worker pool, and serves
// results from a content-addressed cache — identical (netlist, options)
// submissions are answered without re-solving.
//
// Endpoints:
//
//	POST /v1/retime           submit a netlist (raw body + ?name=, or
//	                          multipart field "netlist"); options via
//	                          query parameters (algorithm, accuracy,
//	                          epsilon, frames, words, seed, timeout,
//	                          ...); unknown parameter names are
//	                          rejected with 400
//	GET  /v1/jobs/{id}        job status (tier, ΔSER, error class)
//	GET  /v1/jobs/{id}/result retimed netlist download (.bench)
//	GET  /v1/jobs/{id}/trace  the job's span tree (queue wait, tiers,
//	                          pipeline phases, parallel shards) as JSON
//	POST /v1/sessions         open an ECO session: same body and options
//	                          as /v1/retime, solved synchronously; the
//	                          parsed circuit and its last result stay
//	                          resident
//	POST /v1/sessions/{id}/delta
//	                          apply netlist delta ops (rewire, add_gate,
//	                          rm_node, mark_po, unmark_po) and re-solve
//	                          with seeded constraint discovery; usually
//	                          bit-identical to a from-scratch solve, but
//	                          not on every netlist (DESIGN.md §17.2)
//	GET  /v1/sessions/{id}        session status (applied deltas, last solve)
//	GET  /v1/sessions/{id}/result current retimed netlist (.bench)
//	DELETE /v1/sessions/{id}      close the session
//
// Sessions are ephemeral: they live in memory only, are LRU-evicted
// beyond -max-sessions, expire after -session-ttl idle, and answer 410
// after a daemon restart (the ID carries a per-boot nonce).
//
//	GET  /debug/jobs          live in-flight jobs: age, current phase,
//	                          queue wait, worker utilization
//	GET  /healthz             liveness, queue depth, build identity
//	GET  /metrics             Prometheus-style metrics with exemplar
//	                          trace IDs on the latency histograms
//
// Every accepted job is traced end to end: a trace ID is minted at
// ingress (or adopted from the client's Traceparent header) and its
// span tree — solver counters on the spans they happened in — is
// persisted next to the result under -data-dir, so traces survive
// restarts and `seranalyze -trace DIR/traces` can aggregate them into a
// fleet report. The same document is served at GET /v1/jobs/{id}/trace,
// and every finished trace is folded into the /metrics solver section.
// The -slowjob watchdog logs the open-span stack of any job running past
// the deadline.
//
// A full queue answers 429 with Retry-After; SIGTERM/SIGINT drains
// gracefully: the listener stops accepting, in-flight solves are
// cancelled through their context, and queued jobs are failed before
// exit.
//
// With -data-dir the cache survives restarts — crash included: every job
// transition is journaled to a write-ahead log and every payload written
// atomically with a checksum (internal/store). On boot the daemon
// replays the WAL: finished jobs are re-offered as cache hits (corrupt
// payloads are quarantined, never served), jobs that were queued or
// running when the process died are re-enqueued and solved again. The
// -fsync policy bounds how much journaled state a power cut can lose. A
// store write failure never fails a solve: the daemon logs once, flips
// /healthz store_mode to "memory-degraded", and keeps serving from
// memory.
//
// Usage:
//
//	serretimed [-addr :8080] [-queue 64] [-jobs N] [-solve-workers N]
//	           [-timeout 5m] [-retries N] [-cache N]
//	           [-data-dir DIR] [-fsync always|interval|never]
//	           [-fsync-interval 100ms] [-slowjob 2m]
//	           [-max-sessions 32] [-session-ttl 15m]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"serretime/internal/service"
	"serretime/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("serretimed", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	queue := fs.Int("queue", 64, "job queue bound (submissions beyond it get 429)")
	workers := fs.Int("jobs", 0, "concurrent solves (0 = one per CPU)")
	solveWorkers := fs.Int("solve-workers", 1, "per-solve analysis workers (internal/par budget)")
	timeout := fs.Duration("timeout", 5*time.Minute, "default per-attempt solve budget")
	retries := fs.Int("retries", 0, "default per-tier retry count")
	cacheSize := fs.Int("cache", 4096, "retained finished jobs (content-addressed cache entries)")
	drainWait := fs.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")
	dataDir := fs.String("data-dir", "", "persist jobs and results here; replayed on boot (empty = memory-only)")
	fsyncPolicy := fs.String("fsync", "always", "WAL durability: always, interval or never")
	fsyncEvery := fs.Duration("fsync-interval", 100*time.Millisecond, "max un-synced window under -fsync interval")
	slowJob := fs.Duration("slowjob", 2*time.Minute, "log a stack-of-spans snapshot for jobs running longer than this (0 = off)")
	maxSessions := fs.Int("max-sessions", 32, "resident warm ECO sessions (LRU-evicted beyond this)")
	sessionTTL := fs.Duration("session-ttl", 15*time.Minute, "evict sessions idle longer than this (<0 = never)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	cfg := service.Config{
		QueueDepth:   *queue,
		Workers:      *workers,
		SolveWorkers: *solveWorkers,
		Timeout:      *timeout,
		Retries:      *retries,
		MaxJobs:      *cacheSize,
		SlowJob:      *slowJob,
		MaxSessions:  *maxSessions,
		SessionTTL:   *sessionTTL,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	// Open the persistent store (when configured) and replay its WAL
	// before the listener comes up, so the first request already sees
	// the restored cache.
	var recovered []store.RecoveredJob
	var recStats store.Stats
	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serretimed: %v\n", err)
			return 2
		}
		disk, err := store.Open(store.Options{Dir: *dataDir, Sync: policy, SyncEvery: *fsyncEvery})
		if err != nil {
			fmt.Fprintf(os.Stderr, "serretimed: %v\n", err)
			return 1
		}
		recovered, recStats, err = disk.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "serretimed: recovery: %v\n", err)
			return 1
		}
		cfg.Store = disk
		fmt.Printf("serretimed: store: %s (fsync=%s)\n", disk.Dir(), policy)
	}

	svc := service.New(context.Background(), cfg)
	if cfg.Store != nil {
		sum := svc.Restore(recovered, recStats)
		fmt.Printf("serretimed: recovery: %d finished jobs restored, %d requeued, %d dropped, %d quarantined\n",
			sum.Finished, sum.Requeued, sum.Dropped, sum.Quarantined)
		if recStats.CorruptRecords > 0 || recStats.TruncatedTail {
			fmt.Printf("serretimed: recovery: WAL damage absorbed: %d corrupt records, truncated tail=%v\n",
				recStats.CorruptRecords, recStats.TruncatedTail)
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serretimed: %v\n", err)
		return 1
	}
	fmt.Printf("serretimed: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "serretimed: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: stop accepting, cancel in-flight solves, fail queued jobs.
	fmt.Println("serretimed: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "serretimed: shutdown: %v\n", err)
		code = 1
	}
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "serretimed: drain: %v\n", err)
		code = 1
	}
	fmt.Println("serretimed: stopped")
	return code
}
