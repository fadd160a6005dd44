package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

// TestRunCoverage: every index in [0, n) is visited exactly once, for a
// grid of (n, workers) including degenerate shapes.
func TestRunCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 64, 1000} {
		for _, w := range []int{1, 2, 3, 8, 17} {
			p := New("par.test", w, nil)
			seen := make([]int32, n)
			err := p.Run(context.Background(), n, func(worker, lo, hi int) error {
				if lo > hi || lo < 0 || hi > n {
					return fmt.Errorf("bad span [%d,%d) of %d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d w=%d: %v", n, w, err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

// TestRunSpanCount: at most min(workers, n) spans, each non-empty.
func TestRunSpanCount(t *testing.T) {
	p := New("par.test", 8, nil)
	var spans atomic.Int32
	if err := p.Run(context.Background(), 3, func(worker, lo, hi int) error {
		if lo == hi {
			return errors.New("empty span")
		}
		spans.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := spans.Load(); got != 3 {
		t.Fatalf("spans = %d, want 3 (capped at n)", got)
	}
}

// TestRunInlineSequential: one worker runs fn on the calling goroutine —
// the test writes to a captured variable without synchronization, which
// the race detector would flag if a goroutine were forked.
func TestRunInlineSequential(t *testing.T) {
	p := New("par.test", 1, nil)
	ran := false
	if err := p.Run(context.Background(), 100, func(worker, lo, hi int) error {
		if worker != 0 || lo != 0 || hi != 100 {
			t.Errorf("inline span = (%d, %d, %d), want (0, 0, 100)", worker, lo, hi)
		}
		ran = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("fn did not run")
	}
}

// TestRunInlinePanicPropagates: the sequential path is byte-for-byte the
// unsharded code, so a panic must reach the caller unchanged.
func TestRunInlinePanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate on the inline path")
		}
	}()
	p := New("par.test", 1, nil)
	_ = p.Run(context.Background(), 4, func(worker, lo, hi int) error {
		panic("boom")
	})
}

// TestRunPanicCaptured: a worker panic in a parallel run becomes a
// guard.ErrInternal with the pool's op attached, not a crash.
func TestRunPanicCaptured(t *testing.T) {
	p := New("par.test", 4, nil)
	err := p.Run(context.Background(), 8, func(worker, lo, hi int) error {
		if lo <= 5 && 5 < hi {
			panic("shard 5 exploded")
		}
		return nil
	})
	if !errors.Is(err, guard.ErrInternal) {
		t.Fatalf("err = %v, want guard.ErrInternal", err)
	}
	var ie *guard.InternalError
	if !errors.As(err, &ie) || ie.Op != "par.test" || len(ie.Stack) == 0 {
		t.Fatalf("internal error not annotated: %+v", ie)
	}
}

// TestRunLowestShardErrorWins: with several failing shards the returned
// error is the lowest-numbered one — independent of scheduling.
func TestRunLowestShardErrorWins(t *testing.T) {
	p := New("par.test", 4, nil)
	for i := 0; i < 50; i++ {
		err := p.Run(context.Background(), 4, func(worker, lo, hi int) error {
			if worker >= 1 {
				return fmt.Errorf("shard %d failed", worker)
			}
			return nil
		})
		if err == nil || err.Error() != "shard 1 failed" {
			t.Fatalf("err = %v, want shard 1's error", err)
		}
	}
}

// TestRunCancellation: a done context surfaces as guard.ErrTimeout, on
// both the inline and the parallel path.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		p := New("par.test", w, nil)
		err := p.Run(ctx, 16, func(worker, lo, hi int) error { return nil })
		if !errors.Is(err, guard.ErrTimeout) {
			t.Fatalf("workers=%d: err = %v, want guard.ErrTimeout", w, err)
		}
	}
}

// TestRunBoundedWorkers: concurrently active shards never exceed the pool
// width (one span per worker makes this structural; the test guards the
// invariant against future chunked scheduling).
func TestRunBoundedWorkers(t *testing.T) {
	const width = 3
	p := New("par.test", width, nil)
	var active, peak atomic.Int32
	if err := p.Run(context.Background(), 64, func(worker, lo, hi int) error {
		a := active.Add(1)
		for {
			m := peak.Load()
			if a <= m || peak.CompareAndSwap(m, a) {
				break
			}
		}
		for i := 0; i < 1000; i++ { // widen the overlap window
			_ = i
		}
		active.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > width {
		t.Fatalf("peak active workers %d > width %d", peak.Load(), width)
	}
}

// TestUtilizationTelemetry: parallel runs record the par-* counters and
// the worker gauge; inline runs record nothing.
func TestUtilizationTelemetry(t *testing.T) {
	fold := func(tr *telemetry.Trace) *telemetry.RunStats {
		tr.Finish()
		return telemetry.Fold(tr.Doc("", "", "", "", false))
	}
	tr := telemetry.NewTrace(telemetry.TraceID{})
	p := New("par.test", 4, tr)
	if err := p.Run(context.Background(), 8, func(worker, lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s := fold(tr)
	if got := s.Counter(telemetry.CounterParRuns); got != 1 {
		t.Errorf("par-runs = %d, want 1", got)
	}
	if got := s.Counter(telemetry.CounterParShards); got != 4 {
		t.Errorf("par-shards = %d, want 4", got)
	}
	if s.Counter(telemetry.CounterParWallNanos) <= 0 {
		t.Error("par-wall-ns not recorded")
	}
	if s.Counter(telemetry.CounterParBusyNanos) < 0 {
		t.Error("par-busy-ns negative")
	}
	if got := s.Gauge(telemetry.GaugeParWorkers); got != 4 {
		t.Errorf("par-workers gauge = %d, want 4", got)
	}

	tr2 := telemetry.NewTrace(telemetry.TraceID{})
	seq := New("par.test", 1, tr2)
	if err := seq.Run(context.Background(), 8, func(worker, lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := fold(tr2).Counter(telemetry.CounterParRuns); got != 0 {
		t.Errorf("inline run recorded par-runs = %d, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(3) != 3 {
		t.Error("positive workers must pass through")
	}
	if Normalize(0) < 1 || Normalize(-2) < 1 {
		t.Error("non-positive workers must normalize to >= 1")
	}
}

// TestSlicePool: recycled slabs come back zeroed at the requested length,
// so pooled and freshly-allocated runs are indistinguishable.
func TestSlicePool(t *testing.T) {
	var sp SlicePool[uint64]
	s := sp.Get(16)
	if len(s) != 16 {
		t.Fatalf("len = %d, want 16", len(s))
	}
	for i := range s {
		s[i] = ^uint64(0)
	}
	sp.Put(s)
	r := sp.Get(8)
	if len(r) != 8 {
		t.Fatalf("len = %d, want 8", len(r))
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("recycled slab not zeroed at %d: %x", i, v)
		}
	}
	// Requesting more than the recycled capacity allocates fresh.
	sp.Put(r)
	big := sp.Get(1 << 12)
	if len(big) != 1<<12 {
		t.Fatalf("len = %d, want %d", len(big), 1<<12)
	}
	for i, v := range big {
		if v != 0 {
			t.Fatalf("fresh slab not zeroed at %d: %x", i, v)
		}
	}
}
