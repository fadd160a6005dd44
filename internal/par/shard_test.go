package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"serretime/internal/telemetry"
)

// shardSpans walks a trace for "par:" nodes of one op and returns them
// keyed by 1-based worker.
func shardSpans(tr *telemetry.Trace, op string) map[int]*telemetry.Span {
	out := make(map[int]*telemetry.Span)
	tr.Snapshot().Walk(func(_ int, sp *telemetry.Span) {
		if sp.Name == "par:"+op {
			out[sp.Worker] = sp
		}
	})
	return out
}

// TestShardSpanInline checks the w==1 sequential path still reports a
// worker-0 shard span when the recorder is a Trace — the default
// SolveWorkers=1 daemon config must produce par spans in job traces.
func TestShardSpanInline(t *testing.T) {
	tr := telemetry.NewTrace(telemetry.TraceID{})
	p := New("obs.compute", 1, tr)
	for i := 0; i < 3; i++ {
		if err := p.Run(context.Background(), 100, func(w, lo, hi int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	spans := shardSpans(tr, "obs.compute")
	sp := spans[1]
	if sp == nil || sp.Count != 3 || sp.Errs != 0 {
		t.Fatalf("inline shard span = %+v", sp)
	}
}

// TestShardSpanParallel checks worker attribution and error capture on
// the concurrent path.
func TestShardSpanParallel(t *testing.T) {
	tr := telemetry.NewTrace(telemetry.TraceID{})
	p := New("wd.sweep", 4, tr)
	boom := errors.New("boom")
	err := p.Run(context.Background(), 40, func(w, lo, hi int) error {
		if w == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v", err)
	}
	spans := shardSpans(tr, "wd.sweep")
	if len(spans) != 4 {
		t.Fatalf("%d shard spans, want 4: %v", len(spans), spans)
	}
	for w := 1; w <= 4; w++ {
		sp := spans[w]
		if sp == nil || sp.Count != 1 {
			t.Fatalf("worker %d span = %+v", w, sp)
		}
		if (w == 3) != (sp.Errs == 1) { // worker index 2 is 1-based 3
			t.Fatalf("worker %d errs = %d", w, sp.Errs)
		}
	}
}

// countRecorder is a Recorder that is not a ShardRecorder: it keeps
// counter totals only, like a caller's Config.Recorder.
type countRecorder struct {
	n [telemetry.NumCounters]atomic.Int64
}

func (*countRecorder) SpanStart(telemetry.Phase)            {}
func (*countRecorder) SpanEnd(telemetry.Phase, error)       {}
func (r *countRecorder) Count(c telemetry.Counter, n int64) { r.n[c].Add(n) }
func (*countRecorder) Gauge(telemetry.Gauge, int64)         {}

// TestShardSpanThroughTee checks the production wiring: the pool sees
// Tee(caller's recorder, trace) and the shard spans reach the trace
// through the multi recorder's ShardRecorder forwarding.
func TestShardSpanThroughTee(t *testing.T) {
	cr := &countRecorder{}
	tr := telemetry.NewTrace(telemetry.TraceID{})
	p := New("obs.compute", 2, telemetry.Tee(cr, tr))
	if err := p.Run(context.Background(), 10, func(w, lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	spans := shardSpans(tr, "obs.compute")
	if len(spans) != 2 {
		t.Fatalf("%d shard spans through Tee, want 2", len(spans))
	}
	if got := cr.n[telemetry.CounterParShards].Load(); got != 2 {
		t.Fatalf("teed recorder shard count = %d", got)
	}
}

// TestShardSpanAbsentWithoutRecorder checks the untraced fast paths stay
// untouched: a nil recorder leaves the pool shard-free.
func TestShardSpanAbsentWithoutRecorder(t *testing.T) {
	p := New("obs.compute", 1, nil)
	if p.shard != nil {
		t.Fatal("nil recorder grew a shard recorder")
	}
	pc := New("obs.compute", 1, &countRecorder{})
	if pc.shard != nil {
		t.Fatal("plain recorder satisfied ShardRecorder; inline path would slow down")
	}
}
