package sim

import (
	"fmt"

	"serretime/internal/circuit"
)

// InjectFlip re-simulates the trace with node target's output forced to
// its complement in frame 0 and returns, for every primary output and
// frame, the XOR of the faulty and clean signatures. A set bit means the
// injected error reached that output in that frame for that vector —
// ground truth for observability (the ODC analysis of package obs is the
// fast approximation of exactly this experiment). It is a sequential
// reference for tests; no solve runs it.
func InjectFlip(tr *Trace, target circuit.NodeID) ([][][]uint64, error) {
	c := tr.Circuit
	csr := tr.csr
	if int(target) < 0 || int(target) >= csr.N {
		return nil, fmt.Errorf("sim: inject target %d out of range", target)
	}
	w := tr.Words
	n := csr.N
	// faulty[node*w+i] holds the faulty value of the current frame.
	cur := make([]uint64, n*w)
	prev := make([]uint64, n*w)
	pos := c.POs()

	// All diffs share one value slab and one header slab: three allocations
	// for the whole experiment instead of two per frame.
	diffs := make([][][]uint64, tr.Frames)
	headers := make([][]uint64, tr.Frames*len(pos))
	slab := make([]uint64, tr.Frames*len(pos)*w)
	for f := 0; f < tr.Frames; f++ {
		diffs[f] = headers[f*len(pos) : (f+1)*len(pos)]
		for i := range pos {
			off := (f*len(pos) + i) * w
			diffs[f][i] = slab[off : off+w : off+w]
		}
	}
	for f := 0; f < tr.Frames; f++ {
		clean := tr.Plane(f)
		// Sources: PIs always match the clean trace; DFFs carry the faulty
		// previous-frame value (frame 0 state matches the clean trace).
		for id := 0; id < n; id++ {
			base := id * w
			switch csr.Kind[id] {
			case circuit.KindPI:
				copy(cur[base:base+w], clean[base:base+w])
			case circuit.KindDFF:
				if f == 0 {
					copy(cur[base:base+w], clean[base:base+w])
				} else {
					src := int(csr.Fanin[csr.FaninStart[id]]) * w
					copy(cur[base:base+w], prev[src:src+w])
				}
			}
		}
		for _, id := range tr.Order {
			base := int(id) * w
			if csr.Kind[id] == circuit.KindGate {
				fanin := csr.FaninOf(id)
				fn := csr.Fn[id]
				for i := 0; i < w; i++ {
					cur[base+i] = fn.EvalFanin(cur, fanin, w, i)
				}
			}
			if id == target && f == 0 {
				for i := 0; i < w; i++ {
					cur[base+i] = ^cur[base+i]
				}
			}
		}
		for i, po := range pos {
			pb := int(po) * w
			for j := 0; j < w; j++ {
				diffs[f][i][j] = cur[pb+j] ^ clean[pb+j]
			}
		}
		cur, prev = prev, cur
	}
	return diffs, nil
}

// EmpiricalObs runs InjectFlip and reduces the result to the fraction of
// vectors for which the flip at target reaches any primary output in any
// frame — the Monte-Carlo estimate of obs(target, n).
func EmpiricalObs(tr *Trace, target circuit.NodeID) (float64, error) {
	diffs, err := InjectFlip(tr, target)
	if err != nil {
		return 0, err
	}
	w := tr.Words
	any := make([]uint64, w)
	for _, frame := range diffs {
		for _, po := range frame {
			for j := 0; j < w; j++ {
				any[j] |= po[j]
			}
		}
	}
	return Density(any), nil
}
