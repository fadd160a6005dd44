// Analytical propagation-probability observability engine (the
// accuracy=fast path, DESIGN.md §16).
//
// Instead of simulating K random vectors over the n-frame expansion and
// measuring ODC mask densities, this engine propagates *probabilities*:
// a forward topological pass computes each node's signal probability
// (the chance its output is 1 under random inputs), and a backward pass
// computes each node's observability as the probability that a flip of
// the node is sensitized to a primary output within the register
// horizon, following Asadi & Tahoori's propagation-probability SER
// estimation (PAPERS.md). Per-gate transfer is exact under the
// independence assumption: the closed forms below equal the full
// truth-table enumeration over the fanin probabilities for every Func in
// this package's gate library (all of which are symmetric; duplicate
// fanin pins are folded first, see ppPrep). What is *approximate* is the
// independence assumption itself — reconvergent fanout correlates
// signals and the product forms do not see it — which is why the engine
// is an estimate cross-validated against the signature simulator rather
// than a replacement for it.
//
// Cost is O(frames · |E|) time with no K factor and no signature planes,
// so circuits far beyond the Monte Carlo autocap finish in milliseconds.
// Parallelism shards each combinational level across workers: nodes in
// one level never read each other (a gate's fanins are strictly lower
// levels forward, its fanouts strictly higher levels backward), every
// node writes only its own slot, and per-node float products run
// sequentially in CSR order — so results are bit-identical for every
// worker count, the same contract as the exact engine (DESIGN.md §11).
package obs

import (
	"context"
	"fmt"

	"serretime/internal/circuit"
	"serretime/internal/par"
	"serretime/internal/sim"
)

// ComputeDesign runs the engine selected by opt.Accuracy over a circuit:
// for AccuracyExact it simulates cfg and runs the ODC backward pass (the
// trace is transient and released before returning); for AccuracyFast it
// skips simulation entirely — cfg contributes only its Frames horizon,
// and cfg.Words/cfg.Seed cannot influence the result. This is the seam
// the analysis cache (serretime.ensureObs) dispatches through.
func ComputeDesign(ctx context.Context, c *circuit.Circuit, cfg sim.Config, opt Options) (*Result, error) {
	if opt.Accuracy == AccuracyFast {
		return ComputeFast(ctx, c, cfg.Frames, opt)
	}
	tr, err := sim.Run(ctx, c, cfg)
	if err != nil {
		return nil, err
	}
	defer tr.Release()
	return Compute(ctx, tr, opt)
}

// Accuracy selects the observability engine.
type Accuracy uint8

const (
	// AccuracyExact is the signature-based ODC analysis over an n-frame
	// simulated trace (Compute): the ground-truth engine.
	AccuracyExact Accuracy = iota
	// AccuracyFast is the analytical propagation-probability estimate
	// (ComputeFast): no simulation, orders of magnitude cheaper, exact
	// per-gate transfer under an independence assumption.
	AccuracyFast
)

func (a Accuracy) String() string {
	switch a {
	case AccuracyExact:
		return "exact"
	case AccuracyFast:
		return "fast"
	}
	return fmt.Sprintf("Accuracy(%d)", uint8(a))
}

// Pools backing the fast engine's arenas: probability planes (float64),
// packed dedup/bucket node lists (NodeID) and offset/scratch arrays
// (int32). All arena allocations are zeroed, so pooling never changes a
// result.
var (
	ppFloatPool par.SlicePool[float64]
	ppIDPool    par.SlicePool[circuit.NodeID]
	ppIdxPool   par.SlicePool[int32]
)

// ppPrep is the per-call flat scratch of the fast engine: level buckets
// (the parallel axis) and per-node deduplicated fanins with multiplicity
// parity (the correctness axis for gates reading one net on several
// pins).
type ppPrep struct {
	// Gates of combinational level L occupy
	// levelNodes[levelStart[L]:levelStart[L+1]]; bucket 0 holds the
	// non-gate sources (PIs and DFFs). maxLevel is the highest level.
	levelStart []int32
	levelNodes []circuit.NodeID
	maxLevel   int

	// Node x reads the distinct nets dedup[dedupStart[x]:dedupStart[x+1]].
	// An entry e >= 0 is net e read an odd number of times; e < 0 is net
	// ^e read an even number of times (relevant to XOR/XNOR only: an
	// even-multiplicity input cancels out of the parity).
	dedupStart []int32
	dedup      []circuit.NodeID
}

// build fills the prep from the CSR using arena-backed scratch.
func (p *ppPrep) build(csr *circuit.CSR, ids *par.Arena[circuit.NodeID], idx *par.Arena[int32]) {
	n := csr.N
	p.maxLevel = 0
	for _, g := range csr.GateOrder {
		if l := int(csr.Level[g]); l > p.maxLevel {
			p.maxLevel = l
		}
	}

	// Level buckets by counting sort; non-gates land in bucket 0.
	p.levelStart = idx.Alloc(p.maxLevel + 2)
	for i := 0; i < n; i++ {
		p.levelStart[csr.Level[i]+1]++
	}
	for l := 0; l < p.maxLevel+1; l++ {
		p.levelStart[l+1] += p.levelStart[l]
	}
	p.levelNodes = ids.Alloc(n)
	fill := idx.Alloc(p.maxLevel + 1)
	copy(fill, p.levelStart)
	for i := 0; i < n; i++ {
		l := csr.Level[i]
		p.levelNodes[fill[l]] = circuit.NodeID(i)
		fill[l]++
	}

	// Dedup fanin pins per node. seen/slot are epoch-stamped by the
	// reading node (x+1 is never the zero value), so one zeroed pair of
	// N-sized arrays serves every node.
	p.dedupStart = idx.Alloc(n + 1)
	p.dedup = ids.Alloc(len(csr.Fanin))
	seen := idx.Alloc(n)
	slot := idx.Alloc(n)
	w := 0
	for x := 0; x < n; x++ {
		p.dedupStart[x] = int32(w)
		for _, f := range csr.FaninOf(circuit.NodeID(x)) {
			if seen[f] == int32(x)+1 {
				p.dedup[slot[f]] = ^p.dedup[slot[f]] // toggle parity
				continue
			}
			seen[f] = int32(x) + 1
			slot[f] = int32(w)
			p.dedup[w] = f
			w++
		}
	}
	p.dedupStart[n] = int32(w)
	p.dedup = p.dedup[:w]
}

// dedupOf returns node x's distinct-fanin entries.
func (p *ppPrep) dedupOf(x circuit.NodeID) []circuit.NodeID {
	return p.dedup[p.dedupStart[x]:p.dedupStart[x+1]]
}

// ppNet decodes a dedup entry into its net ID and multiplicity parity.
func ppNet(e circuit.NodeID) (id circuit.NodeID, odd bool) {
	if e < 0 {
		return ^e, false
	}
	return e, true
}

// ppSignalProb computes a gate's output probability from its distinct
// fanin probabilities — the truth-table-exact transfer for the symmetric
// gate library under the independence assumption.
func ppSignalProb(fn circuit.Func, ded []circuit.NodeID, p []float64) float64 {
	switch fn {
	case circuit.FnConst0:
		return 0
	case circuit.FnConst1:
		return 1
	case circuit.FnBuf:
		id, _ := ppNet(ded[0])
		return p[id]
	case circuit.FnNot:
		id, _ := ppNet(ded[0])
		return 1 - p[id]
	case circuit.FnAnd, circuit.FnNand:
		s := 1.0
		for _, e := range ded {
			id, _ := ppNet(e)
			s *= p[id]
		}
		if fn == circuit.FnNand {
			return 1 - s
		}
		return s
	case circuit.FnOr, circuit.FnNor:
		s := 1.0
		for _, e := range ded {
			id, _ := ppNet(e)
			s *= 1 - p[id]
		}
		if fn == circuit.FnOr {
			return 1 - s
		}
		return s
	case circuit.FnXor, circuit.FnXnor:
		// P(parity of independent odd-multiplicity bits is 1), folded
		// pairwise; even-multiplicity nets cancel out of the parity.
		a := 0.0
		for _, e := range ded {
			id, odd := ppNet(e)
			if !odd {
				continue
			}
			q := p[id]
			a = a*(1-q) + q*(1-a)
		}
		if fn == circuit.FnXnor {
			return 1 - a
		}
		return a
	}
	return 0
}

// ppSens computes the probability that gate y's output flips when net x
// (one of its fanins) flips — the Boolean-difference sensitization
// probability, with duplicate pins of x flipping together.
func ppSens(fn circuit.Func, ded []circuit.NodeID, x circuit.NodeID, p []float64) float64 {
	switch fn {
	case circuit.FnBuf, circuit.FnNot:
		return 1
	case circuit.FnAnd, circuit.FnNand:
		s := 1.0
		for _, e := range ded {
			id, _ := ppNet(e)
			if id != x {
				s *= p[id]
			}
		}
		return s
	case circuit.FnOr, circuit.FnNor:
		s := 1.0
		for _, e := range ded {
			id, _ := ppNet(e)
			if id != x {
				s *= 1 - p[id]
			}
		}
		return s
	case circuit.FnXor, circuit.FnXnor:
		// Parity is sensitized iff x feeds an odd number of pins.
		for _, e := range ded {
			id, odd := ppNet(e)
			if id == x {
				if odd {
					return 1
				}
				return 0
			}
		}
		return 0
	}
	return 0 // constants have no fanins
}

// ComputeFast estimates per-node observabilities analytically over a
// frames-deep register horizon, without simulating. See the package
// comment of this file for the model; frame and register semantics
// (Options.Frame, Options.DropFinalRegisters, the horizon) mirror
// Compute exactly, so fast and exact results are directly comparable.
// The returned Result has K == 0: no vectors were simulated, the
// estimate is analytical. A done ctx aborts between level shards with a
// guard.ErrTimeout-wrapped error.
func ComputeFast(ctx context.Context, c *circuit.Circuit, frames int, opt Options) (*Result, error) {
	csr, err := c.CSR()
	if err != nil {
		return nil, err
	}
	if frames < 1 {
		return nil, fmt.Errorf("obs: fast engine needs frames >= 1, got %d", frames)
	}
	if opt.Frame < 0 || opt.Frame >= frames {
		return nil, fmt.Errorf("obs: frame %d outside horizon of %d frames", opt.Frame, frames)
	}
	n := csr.N

	floats := par.Arena[float64]{Pool: &ppFloatPool}
	ids := par.Arena[circuit.NodeID]{Pool: &ppIDPool}
	idx := par.Arena[int32]{Pool: &ppIdxPool}
	defer func() {
		floats.Release()
		ids.Release()
		idx.Release()
	}()

	var prep ppPrep
	prep.build(csr, &ids, &idx)

	// Forward: prob[f*n+x] = P(node x outputs 1 in frame f). PIs draw
	// fresh random vectors each frame (p = 1/2), registers start random
	// and then carry their data fanin's previous-frame probability —
	// exactly the source model of sim.Run.
	prob := floats.Alloc(frames * n)
	pool := par.New("obs.fast", opt.Workers, opt.Recorder)

	// The shard bodies are hoisted out of the frame × level loops and
	// parameterized through captured variables reassigned between Run
	// calls (never during one): a closure literal inside the loop would
	// cost one heap allocation per shard dispatch, O(frames·depth) per
	// analysis, which the alloc-regression guard forbids.
	var (
		plane, prev []float64
		bucket      []circuit.NodeID
	)
	forward := func(_, lo, hi int) error {
		for _, x := range bucket[lo:hi] {
			switch csr.Kind[x] {
			case circuit.KindPI:
				plane[x] = 0.5
			case circuit.KindDFF:
				if prev == nil {
					plane[x] = 0.5
				} else {
					plane[x] = prev[csr.Fanin[csr.FaninStart[x]]]
				}
			default:
				plane[x] = ppSignalProb(csr.Fn[x], prep.dedupOf(x), plane)
			}
		}
		return nil
	}
	for f := 0; f < frames; f++ {
		plane = prob[f*n : (f+1)*n]
		prev = nil
		if f > 0 {
			prev = prob[(f-1)*n : f*n]
		}
		for l := 0; l <= prep.maxLevel; l++ {
			bucket = prep.levelNodes[prep.levelStart[l]:prep.levelStart[l+1]]
			if err := pool.Run(ctx, len(bucket), forward); err != nil {
				return nil, err
			}
		}
	}

	// Backward: obsCur[x] = P(a flip of x in frame f reaches a PO within
	// the horizon). Contributions combine as 1 - Π(1 - c) under the same
	// independence assumption; a PO is its own certain observation. The
	// frame loop, DFF coupling through the next frame's plane and the
	// last-frame register policy mirror Compute verbatim.
	obsCur := floats.Alloc(n)
	obsNext := floats.Alloc(n)
	var lastFrame bool
	backward := func(_, lo, hi int) error {
		for _, x := range bucket[lo:hi] {
			miss := 1.0
			if csr.IsPO[x] {
				miss = 0
			}
			for _, y := range csr.FanoutOf(x) {
				var c float64
				switch csr.Kind[y] {
				case circuit.KindDFF:
					if lastFrame {
						if opt.DropFinalRegisters {
							continue
						}
						c = 1
					} else {
						c = obsNext[y]
					}
				case circuit.KindGate:
					c = ppSens(csr.Fn[y], prep.dedupOf(y), x, plane) * obsCur[y]
				}
				miss *= 1 - c
			}
			obsCur[x] = 1 - miss
		}
		return nil
	}
	var result *Result
	for f := frames - 1; f >= opt.Frame; f-- {
		plane = prob[f*n : (f+1)*n]
		lastFrame = f == frames-1
		for l := prep.maxLevel; l >= 0; l-- {
			bucket = prep.levelNodes[prep.levelStart[l]:prep.levelStart[l+1]]
			if err := pool.Run(ctx, len(bucket), backward); err != nil {
				return nil, err
			}
		}
		if f == opt.Frame {
			res := &Result{Obs: make([]float64, n), Frame: opt.Frame}
			copy(res.Obs, obsCur)
			result = res
			break
		}
		obsCur, obsNext = obsNext, obsCur
	}
	return result, nil
}
