// Package sim provides bit-parallel logic simulation of sequential
// circuits, including the n-time-frame expansion used by signature-based
// soft-error analysis ([17], [21] in the paper).
//
// Signatures are []uint64 slices: every machine word carries 64 independent
// random simulation vectors, so one pass over the netlist simulates 64·W
// input patterns. Signature words are mutually independent columns, which
// makes them the safe parallel axis: Run shards the per-frame evaluation
// across word ranges (DESIGN.md §11) and produces bit-identical traces for
// every worker count. InjectFlip, the fault-injection ground truth that
// tests compare the ODC analysis against, re-simulates sequentially.
//
// The trace is a single flat plane: word (frame, node, w) lives at
// vals[(frame·N + node)·Words + w]. Evaluation walks the circuit's CSR
// view (circuit.CSR, DESIGN.md §15) — packed fanin arrays and a cached
// topological order — so a steady-state Run performs O(1) allocations,
// with the plane itself recycled through a pooled arena (Trace.Release).
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"serretime/internal/circuit"
	"serretime/internal/par"
	"serretime/internal/telemetry"
)

// Config controls a simulation run.
type Config struct {
	// Words is the signature width in 64-bit words (K = 64·Words vectors).
	Words int
	// Frames is the number of time frames n for the expansion.
	Frames int
	// Seed makes the random vectors reproducible.
	Seed int64
	// Workers bounds the CPU workers sharding signature words during gate
	// evaluation. 0 (or negative) means one worker per available CPU;
	// 1 runs the exact sequential code path. The trace is bit-identical
	// for every value: random draws happen outside the parallel sections
	// and each shard writes a disjoint word range.
	Workers int
	// Recorder receives worker-pool utilization telemetry (nil: none).
	Recorder telemetry.Recorder
}

func (cfg Config) validate() error {
	if cfg.Words <= 0 {
		return fmt.Errorf("sim: Words = %d, must be positive", cfg.Words)
	}
	if cfg.Frames <= 0 {
		return fmt.Errorf("sim: Frames = %d, must be positive", cfg.Frames)
	}
	return nil
}

// tracePool recycles the flat signature planes across Runs (via
// Trace.Release).
var tracePool par.SlicePool[uint64]

// Trace holds the signatures of every node in every frame of a time-frame
// expanded simulation.
type Trace struct {
	Circuit *circuit.Circuit
	Words   int
	Frames  int
	// Order is the combinational topological order used for evaluation.
	// It aliases the circuit's cached CSR order; callers must not modify.
	Order []circuit.NodeID

	csr    *circuit.CSR
	stride int      // words per frame: NumNodes · Words
	vals   []uint64 // flat plane: vals[(frame·N + node)·Words + w]
	arena  par.Arena[uint64]
}

// Value returns the signature of node n in the given frame. The returned
// slice aliases the trace; callers must not modify it. Out-of-range frames
// or nodes panic — the flat plane would otherwise alias a neighboring
// frame's words, so the bounds are checked explicitly.
func (t *Trace) Value(frame int, n circuit.NodeID) []uint64 {
	if frame < 0 || frame >= t.Frames {
		panic(fmt.Sprintf("sim: Trace.Value frame %d outside [0, %d)", frame, t.Frames))
	}
	if int(n) < 0 || int(n)*t.Words >= t.stride {
		panic(fmt.Sprintf("sim: Trace.Value node %d outside [0, %d)", n, t.stride/t.Words))
	}
	base := frame*t.stride + int(n)*t.Words
	return t.vals[base : base+t.Words : base+t.Words]
}

// Plane returns the node-major signature plane of one frame (the signature
// of node n occupies words [n·Words, (n+1)·Words)). The hot loops index it
// directly instead of paying Value's per-call bounds checks. Callers must
// not modify the plane.
func (t *Trace) Plane(frame int) []uint64 {
	return t.vals[frame*t.stride : (frame+1)*t.stride]
}

// CSR returns the flat view of the traced circuit.
func (t *Trace) CSR() *circuit.CSR { return t.csr }

// Release returns the trace's signature plane to the package pool. The
// trace and every slice obtained from Value or Plane are invalid
// afterwards. Callers that treat traces as transient (run, analyze,
// discard) should Release to keep steady-state allocation flat; letting
// the GC collect an unreleased trace is merely slower, never wrong.
func (t *Trace) Release() {
	t.vals = nil
	t.arena.Release()
}

// Run simulates cfg.Frames cycles of c with fresh random primary-input
// signatures every frame and random initial flip-flop contents. A done
// ctx aborts between shards with a guard.ErrTimeout-wrapped error.
func Run(ctx context.Context, c *circuit.Circuit, cfg Config) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	csr, err := c.CSR()
	if err != nil {
		return nil, err
	}
	n := csr.N
	t := &Trace{
		Circuit: c,
		Words:   cfg.Words,
		Frames:  cfg.Frames,
		Order:   csr.Order,
		csr:     csr,
		stride:  n * cfg.Words,
		arena:   par.Arena[uint64]{Pool: &tracePool},
	}
	// One flat plane for all frames, recycled across Runs via the arena.
	t.vals = t.arena.Alloc(cfg.Frames * t.stride)
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := par.New("sim.run", cfg.Workers, cfg.Recorder)
	W := cfg.Words
	for f := 0; f < cfg.Frames; f++ {
		vals := t.Plane(f)
		// Sources first, sequentially: PIs and DFFs must hold their frame-f
		// values before any gate reads them (the topological order may place
		// a gate whose fanins are all sources ahead of some sources), and
		// the RNG draw order must not depend on the worker count.
		var prev []uint64
		if f > 0 {
			prev = t.Plane(f - 1)
		}
		for id := 0; id < n; id++ {
			base := id * W
			switch csr.Kind[id] {
			case circuit.KindPI:
				for w := base; w < base+W; w++ {
					vals[w] = rng.Uint64()
				}
			case circuit.KindDFF:
				if f == 0 {
					for w := base; w < base+W; w++ {
						vals[w] = rng.Uint64()
					}
				} else {
					d := int(csr.Fanin[csr.FaninStart[id]]) * W
					copy(vals[base:base+W], prev[d:d+W])
				}
			}
		}
		// Gate evaluation sharded across word columns: within one word the
		// topological order serializes data dependencies; across words there
		// are none.
		err := pool.Run(ctx, W, func(worker, lo, hi int) error {
			for _, id := range csr.GateOrder {
				fanin := csr.FaninOf(id)
				fn := csr.Fn[id]
				base := int(id) * W
				for w := lo; w < hi; w++ {
					vals[base+w] = fn.EvalFanin(vals, fanin, W, w)
				}
			}
			return nil
		})
		if err != nil {
			t.Release()
			return nil, err
		}
	}
	return t, nil
}

// PopCount returns the number of set bits in a signature.
func PopCount(sig []uint64) int {
	n := 0
	for _, w := range sig {
		n += bits.OnesCount64(w)
	}
	return n
}

// Density returns the fraction of set bits in a signature.
func Density(sig []uint64) float64 {
	if len(sig) == 0 {
		return 0
	}
	return float64(PopCount(sig)) / float64(64*len(sig))
}
