// Package par is the deterministic parallel substrate of the analysis
// engine: a bounded fork-join worker pool used to shard the signature
// simulation, the ODC observability pass and the fast propagation-
// probability engine across CPU cores (DESIGN.md §11).
//
// Determinism is the design constraint. A Pool never changes results, for
// any worker count, because the sharded code obeys two rules:
//
//   - every shard writes only into a pre-partitioned, disjoint region of
//     the output (signature words, ODC mask words, per-level node slots);
//   - nothing order-dependent (RNG draws, float accumulation across
//     shards) happens inside a parallel section.
//
// With Workers == 1 a Run executes inline on the calling goroutine with
// no forking, no panic recovery and no counter telemetry — the exact
// sequential code path, byte for byte (when the recorder is a
// telemetry.ShardRecorder the inline run is still reported as one shard
// span, so traced jobs see their parallel sections regardless of worker
// count). Parallel runs capture worker panics into
// guard.ErrInternal (a panic must not crash a server goroutine), observe
// context cancellation via guard checkpoints before each shard, and
// record utilization telemetry (par-runs / par-shards / par-busy-ns /
// par-wall-ns counters and the par-workers gauge).
package par

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

// Normalize maps a Workers option value to an effective worker count:
// positive values pass through, everything else means "one worker per
// available CPU" (runtime.GOMAXPROCS).
func Normalize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is a bounded deterministic worker pool. The zero value is not
// usable; construct with New. A Pool is stateless between Runs and safe
// for concurrent use.
type Pool struct {
	op      string
	workers int
	rec     telemetry.Recorder
	shard   telemetry.ShardRecorder // nil unless rec wants shard spans
	nop     bool
}

// New returns a pool of Normalize(workers) workers. op names the pool in
// guard errors (timeouts, captured panics); rec receives the utilization
// telemetry (nil records nothing). If rec also implements
// telemetry.ShardRecorder (a Trace, or a Tee containing one), every
// shard execution — including the inline sequential path — is reported
// to it with worker attribution.
func New(op string, workers int, rec telemetry.Recorder) *Pool {
	r := telemetry.OrNop(rec)
	p := &Pool{op: op, workers: Normalize(workers), rec: r, nop: r == telemetry.Nop}
	if !p.nop {
		p.shard, _ = r.(telemetry.ShardRecorder)
	}
	return p
}

// Workers returns the pool width.
func (p *Pool) Workers() int { return p.workers }

// Run partitions the index range [0, n) into one contiguous span per
// worker (at most Workers spans, never more than n) and executes
// fn(worker, lo, hi) for each span, concurrently. Span boundaries depend
// only on n and the worker count; every index is covered exactly once.
//
// All spans run to completion even when one fails; the error of the
// lowest-numbered failing span is returned, so the reported error does
// not depend on goroutine scheduling. A panic inside fn is captured as a
// *guard.InternalError (unwrapping to guard.ErrInternal); a done ctx
// (which must not be nil) is reported as a *guard.TimeoutError before a
// span starts. With one worker (or n <= 1) fn runs inline on the calling
// goroutine and panics propagate unchanged — the exact unsharded code
// path.
func (p *Pool) Run(ctx context.Context, n int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w == 1 {
		if cerr := guard.Checkpoint(ctx, p.op); cerr != nil {
			return cerr
		}
		if p.shard == nil {
			return fn(0, 0, n)
		}
		t0 := time.Now()
		err := fn(0, 0, n)
		p.shard.ShardSpan(p.op, 0, time.Since(t0), err)
		return err
	}

	var start time.Time
	if !p.nop {
		start = time.Now()
	}
	errs := make([]error, w)
	var busy atomic.Int64
	var wg sync.WaitGroup
	chunk, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			var t0 time.Time
			if !p.nop {
				t0 = time.Now()
			}
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &guard.InternalError{Op: p.op, Value: r, Stack: debug.Stack()}
				}
				if !p.nop {
					d := time.Since(t0)
					busy.Add(int64(d))
					if p.shard != nil {
						p.shard.ShardSpan(p.op, i, d, errs[i])
					}
				}
			}()
			if cerr := guard.Checkpoint(ctx, p.op); cerr != nil {
				errs[i] = cerr
				return
			}
			errs[i] = fn(i, lo, hi)
		}(i, lo, hi)
		lo = hi
	}
	wg.Wait()
	if !p.nop {
		p.rec.Count(telemetry.CounterParRuns, 1)
		p.rec.Count(telemetry.CounterParShards, int64(w))
		p.rec.Count(telemetry.CounterParBusyNanos, busy.Load())
		p.rec.Count(telemetry.CounterParWallNanos, int64(time.Since(start)))
		p.rec.Gauge(telemetry.GaugeParWorkers, int64(w))
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
