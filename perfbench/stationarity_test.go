package main

import (
	"context"
	"math"
	"runtime/debug"
	"sort"
	"testing"
	"time"
)

// startWorkload generates a workload's inputs for seed and boots it in
// this process, the way a workload process does.
func startWorkload(t *testing.T, name string, seed int64) workload {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the workload for several seconds")
	}
	in, err := makeInput("..", name, seed, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload(in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := w.setup(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.close(ctx); err != nil {
			t.Error(err)
		}
	})
	return w
}

func p50(ops []opRecord) float64 {
	lat := make([]float64, len(ops))
	for i, op := range ops {
		lat[i] = float64(op.LatNS) / 1e6
	}
	sort.Float64s(lat)
	return percentile(lat, 0.5)
}

// TestHalvesAgree checks that the operation mix does not drift: the first
// and second halves of a run agree on op_p50_ms within the benchmark's
// bound.
func TestHalvesAgree(t *testing.T) {
	limit := bound(t, "op_p50_ms")
	for _, name := range []string{"solve", "serve", "eco"} {
		t.Run(name, func(t *testing.T) {
			w := startWorkload(t, name, 3)
			ops, _ := closedLoop(context.Background(), w, 12*time.Second)
			for _, op := range ops {
				if op.Err != "" {
					t.Fatalf("operation failed: %s", op.Err)
				}
			}
			half := len(ops) / 2
			a, b := p50(ops[:half]), p50(ops[half:])
			t.Logf("%d ops: first half p50 %.1f ms, second half %.1f ms", len(ops), a, b)
			if math.Abs(b-a)/a > limit {
				t.Errorf("halves disagree: %.1f vs %.1f ms, beyond the %.0f%% bound", a, b, 100*limit)
			}
		})
	}
}

// TestServeMemoryLevelsOff checks that the serve workload's resident
// memory stops growing: the bounded job table evicts as fast as the run
// submits.
func TestServeMemoryLevelsOff(t *testing.T) {
	if rssKB() == 0 {
		t.Skip("no VmRSS in /proc/self/status")
	}
	debug.FreeOSMemory()
	w := startWorkload(t, "serve", 5)
	var samples []int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				samples = append(samples, rssKB())
			}
		}
	}()
	ops, _ := closedLoop(context.Background(), w, 20*time.Second)
	cancel()
	<-done
	// RSS swings by a few MB as the GC cycles of the two concurrent
	// solves coincide or not, so compare the typical level, not the
	// extremes.
	level := func(xs []int64) float64 {
		f := make([]float64, len(xs))
		for i, x := range xs {
			f[i] = float64(x)
		}
		return median(f)
	}
	third := len(samples) / 3
	early, late := level(samples[:third]), level(samples[2*third:])
	t.Logf("%d submissions; median RSS %.0f kB in the first third, %.0f kB in the last", len(ops), early, late)
	if late > 1.15*early {
		t.Errorf("RSS still growing: %.0f kB early, %.0f kB late", early, late)
	}
}

// TestEcoCycleRestartsFromBase checks that every reopen returns the base
// netlist's result and every cycle repeats the first cycle's digests, so
// per-operation cost cannot depend on how far a run got.
func TestEcoCycleRestartsFromBase(t *testing.T) {
	w := startWorkload(t, "eco", defaultSeed)
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ops []opRecord
	for i := 0; i < 2*(ecoCycle+2); i++ {
		ops = append(ops, w.op(ctx, 0))
	}
	first := map[int]string{}
	opens := 0
	for _, op := range ops {
		if op.Err != "" {
			t.Fatalf("%s failed: %s", op.Kind, op.Err)
		}
		switch op.Kind {
		case "open":
			opens++
			if op.Digest != p.EcoOpen {
				t.Errorf("reopen %d: digest %.12s, want the base netlist's %.12s", op.Cycle, op.Digest, p.EcoOpen)
			}
		case "delta":
			if op.Cycle == 0 {
				first[op.Input] = op.Digest
				if op.Input >= len(p.EcoDefaultSeed) || op.Digest != p.EcoDefaultSeed[op.Input] {
					t.Errorf("delta %d: digest %.12s differs from the pinned one", op.Input, op.Digest)
				}
			} else if op.Digest != first[op.Input] {
				t.Errorf("cycle %d delta %d: digest %.12s, first cycle %.12s", op.Cycle, op.Input, op.Digest, first[op.Input])
			}
		}
	}
	if opens != 2 || len(first) != ecoCycle {
		t.Errorf("saw %d reopens and %d distinct deltas, want 2 and %d", opens, len(first), ecoCycle)
	}
}
