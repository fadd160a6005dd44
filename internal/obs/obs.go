// Package obs computes signal observabilities of a sequential circuit by
// signature-based ODC (observability don't-care) analysis over an
// n-time-frame expanded simulation, following [17]/[21] of the paper:
//
//	obs(g) = num_ones(O(g)) / K
//
// where O(g) is the ODC mask of gate g's first-frame instance and K the
// number of simulated vectors. Registers act as wires in the expansion, so
// an error injected at g in frame 0 may surface at a primary output of any
// later frame; the mask is the union of all those observation events.
//
// The backward pass is sharded across signature words (DESIGN.md §11):
// within one word column the reverse topological order guarantees a node's
// fanouts are finished before the node itself, and word columns never read
// each other, so the masks are bit-identical for every worker count. The
// pass walks the circuit's CSR view (DESIGN.md §15): packed fanout arrays,
// the cached reverse order, and the trace's flat signature planes.
package obs

import (
	"context"
	"fmt"

	"serretime/internal/circuit"
	"serretime/internal/par"
	"serretime/internal/sim"
	"serretime/internal/telemetry"
)

// Options tunes the analysis.
type Options struct {
	// Accuracy selects the engine ComputeDesign dispatches to:
	// AccuracyExact (default) simulates and runs the ODC pass, AccuracyFast
	// runs the analytical propagation-probability estimate (pp.go). The
	// direct entry points Compute (exact) and ComputeFast (fast) ignore it.
	Accuracy Accuracy
	// Frame selects which frame's gate instances are reported (default 0,
	// giving errors the full n-frame horizon to propagate).
	Frame int
	// DropFinalRegisters, when set, treats an error still held in a
	// register after the last frame as unobserved. By default such errors
	// count as observable (they are latched and will eventually surface).
	DropFinalRegisters bool
	// Workers bounds the CPU workers sharding the ODC word columns.
	// 0 (or negative) means one worker per available CPU; 1 runs the
	// exact sequential code path. Results are identical for every value.
	Workers int
	// Recorder receives worker-pool utilization telemetry (nil: none).
	Recorder telemetry.Recorder
}

// Result holds per-node observabilities.
type Result struct {
	// Obs[node] is the observability of the node's output in [0, 1].
	Obs []float64
	// K is the number of simulated vectors (64 · words).
	K int
	// Frame is the reported frame instance.
	Frame int
}

// GateObs returns the observability of a node.
func (r *Result) GateObs(n circuit.NodeID) float64 { return r.Obs[n] }

// odcPool recycles the two ODC mask slabs (n·Words uint64 each). Both are
// cleared before use, so pooling cannot change a result.
var odcPool par.SlicePool[uint64]

// Compute runs the backward ODC propagation over the trace. A done ctx
// aborts between shards with a guard.ErrTimeout-wrapped error.
func Compute(ctx context.Context, tr *sim.Trace, opt Options) (*Result, error) {
	csr := tr.CSR()
	if opt.Frame < 0 || opt.Frame >= tr.Frames {
		return nil, fmt.Errorf("obs: frame %d outside trace of %d frames", opt.Frame, tr.Frames)
	}
	n := csr.N
	w := tr.Words

	// odcNext[node] = ODC mask of the node in frame f+1 (register
	// coupling); odcCur[node] = mask being built for frame f.
	odcNext := odcPool.Get(n * w)
	odcCur := odcPool.Get(n * w)
	defer func() {
		odcPool.Put(odcNext)
		odcPool.Put(odcCur)
	}()

	pool := par.New("obs.compute", opt.Workers, opt.Recorder)
	var result *Result
	for f := tr.Frames - 1; f >= opt.Frame; f-- {
		clear(odcCur)
		// Shard the backward pass across word columns. For a fixed word,
		// when node x reads odcCur of a gate fanout y, y is later in topo
		// order, hence earlier in rev order, hence already final — the same
		// dependency argument as the sequential pass, per column.
		plane := tr.Plane(f)
		lastFrame := f == tr.Frames-1
		err := pool.Run(ctx, w, func(worker, lo, hi int) error {
			in := make([]uint64, 0, 8)
			// evalFlip recomputes gate y with fanin x complemented, reading
			// the clean values straight off the frame's signature plane.
			evalFlip := func(y circuit.NodeID, x circuit.NodeID, word int) uint64 {
				in = in[:0]
				for _, fid := range csr.FaninOf(y) {
					v := plane[int(fid)*w+word]
					if fid == x {
						v = ^v
					}
					in = append(in, v)
				}
				return csr.Fn[y].Eval(in)
			}
			for _, x := range csr.RevOrder {
				base := int(x) * w
				dst := odcCur[base : base+w]
				if csr.IsPO[x] {
					for i := lo; i < hi; i++ {
						dst[i] = ^uint64(0)
					}
				}
				for _, y := range csr.FanoutOf(x) {
					ybase := int(y) * w
					switch csr.Kind[y] {
					case circuit.KindDFF:
						// The flip is stored and surfaces at the DFF's
						// output in frame f+1.
						if lastFrame {
							if !opt.DropFinalRegisters {
								for i := lo; i < hi; i++ {
									dst[i] = ^uint64(0)
								}
							}
							continue
						}
						for i := lo; i < hi; i++ {
							dst[i] |= odcNext[ybase+i]
						}
					case circuit.KindGate:
						for i := lo; i < hi; i++ {
							local := evalFlip(y, x, i) ^ plane[ybase+i]
							dst[i] |= local & odcCur[ybase+i]
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if f == opt.Frame {
			res := &Result{Obs: make([]float64, n), K: 64 * w, Frame: opt.Frame}
			for i := 0; i < n; i++ {
				res.Obs[i] = sim.Density(odcCur[i*w : (i+1)*w])
			}
			result = res
			break
		}
		odcCur, odcNext = odcNext, odcCur
	}
	return result, nil
}
