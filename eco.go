package serretime

// Warm-state ECO sessions (DESIGN.md §17). A WarmState keeps a parsed
// design, the Section V initialization memo, and the last committed
// result alive between solves, so a small netlist delta re-solves
// incrementally: the constraint engine is bulk-seeded with the P0
// requirement closure (RetimeOptions.warmStart), the init memo re-enters
// the min-period searches for free when the structure is unchanged, and
// the Design's observability cache survives option-only deltas. Seeding
// does not guarantee the lazy cascade's fixpoint: on most netlists a
// session answer is byte-identical to a from-scratch RetimeRobust of the
// same netlist (TestRetimeDeltaMatchesCold, and serbench -eco on every
// delta), but a MinObsWin solve can settle on a different legal retiming
// (s15850.1 at the serve scale; TestSeededVsLazyTableI).

import (
	"context"
	"fmt"

	"serretime/internal/circuit"
	"serretime/internal/guard"
)

// sessionDirtyThreshold is the share of the gates a delta may touch and
// still take the warm path; a larger delta falls back to a cold solve.
const sessionDirtyThreshold = 0.5

// DeltaOp is one netlist edit of an ECO delta. Ops apply in order; names
// are net names, resolved against the session circuit as it stands when
// the op runs.
type DeltaOp struct {
	// Op is one of add_gate, add_dff, rm_node, rewire, mark_po,
	// unmark_po.
	Op string `json:"op"`
	// Name is the target net.
	Name string `json:"name"`
	// Fn names the gate function for add_gate (AND, NAND, OR, NOR, XOR,
	// XNOR, NOT, BUF, CONST0, CONST1).
	Fn string `json:"fn,omitempty"`
	// Fanin lists driver nets for add_gate, add_dff and rewire.
	Fanin []string `json:"fanin,omitempty"`
}

// ApplyDeltaOps applies ops to c in place and returns the number of
// structurally touched nodes. On error the circuit may be partially
// edited — apply to a Clone when the original must survive a bad delta.
// Acyclicity is not checked here; building a Design from the result
// (newDesign → graph extraction) rejects combinational cycles.
func ApplyDeltaOps(c *circuit.Circuit, ops []DeltaOp) (int, error) {
	changed := 0
	resolve := func(op, name string) (circuit.NodeID, error) {
		id, ok := c.Lookup(name)
		if !ok {
			return 0, guard.Optionf("serretime.ApplyDeltaOps", op, "unknown net %q", name)
		}
		return id, nil
	}
	resolveAll := func(op string, names []string) ([]circuit.NodeID, error) {
		out := make([]circuit.NodeID, len(names))
		for i, n := range names {
			id, err := resolve(op, n)
			if err != nil {
				return nil, err
			}
			out[i] = id
		}
		return out, nil
	}
	for i, op := range ops {
		var err error
		switch op.Op {
		case "add_gate":
			fn, ok := circuit.ParseFunc(op.Fn)
			if !ok {
				err = guard.Optionf("serretime.ApplyDeltaOps", "add_gate", "unknown function %q", op.Fn)
				break
			}
			var fanin []circuit.NodeID
			if fanin, err = resolveAll("add_gate", op.Fanin); err == nil {
				_, err = c.AddGate(op.Name, fn, fanin...)
			}
		case "add_dff":
			if len(op.Fanin) != 1 {
				err = guard.Optionf("serretime.ApplyDeltaOps", "add_dff", "needs exactly 1 fanin, got %d", len(op.Fanin))
				break
			}
			var d circuit.NodeID
			if d, err = resolve("add_dff", op.Fanin[0]); err == nil {
				_, err = c.AddDFF(op.Name, d)
			}
		case "rm_node":
			var id circuit.NodeID
			if id, err = resolve("rm_node", op.Name); err == nil {
				err = c.RemoveNode(id)
			}
		case "rewire":
			var id circuit.NodeID
			var fanin []circuit.NodeID
			if id, err = resolve("rewire", op.Name); err == nil {
				if fanin, err = resolveAll("rewire", op.Fanin); err == nil {
					err = c.Rewire(id, fanin)
				}
			}
		case "mark_po":
			var id circuit.NodeID
			if id, err = resolve("mark_po", op.Name); err == nil {
				err = c.MarkPO(id)
			}
		case "unmark_po":
			var id circuit.NodeID
			if id, err = resolve("unmark_po", op.Name); err == nil {
				err = c.UnmarkPO(id)
			}
		default:
			err = guard.Optionf("serretime.ApplyDeltaOps", "op", "unknown op %q", op.Op)
		}
		if err != nil {
			return changed, fmt.Errorf("delta op %d: %w", i, err)
		}
		changed++
	}
	return changed, nil
}

// DeltaStats describes how a delta was solved.
type DeltaStats struct {
	// Structural reports whether the delta edited the netlist (as
	// opposed to changing only options).
	Structural bool `json:"structural"`
	// ChangedNodes counts the applied netlist edits.
	ChangedNodes int `json:"changed_nodes"`
	// DirtyFrac is ChangedNodes over the gate count.
	DirtyFrac float64 `json:"dirty_frac"`
	// Warm reports whether the incremental path ran; when false,
	// FallbackReason says why the delta fell back to a cold full solve.
	Warm           bool   `json:"warm"`
	FallbackReason string `json:"fallback_reason,omitempty"`
}

// WarmState is the solver state an ECO session keeps alive between
// deltas. It is not safe for concurrent use; the service serializes
// access with a per-session mutex. Failed deltas do not advance the
// state: the session still answers for the last successfully solved
// netlist.
type WarmState struct {
	d    *Design
	opts RobustOptions
	memo *initCache
	res  *RobustResult
}

// NewWarmState solves d from scratch with seeded constraint discovery
// (fewer discovery steps, usually the same bytes as RetimeRobust; see the
// file comment) and wraps the results as session state.
func NewWarmState(ctx context.Context, d *Design, opt RobustOptions) (*WarmState, error) {
	w := &WarmState{memo: &initCache{}}
	o := opt
	o.RetimeOptions.warmStart = true
	o.RetimeOptions.initMemo = w.memo
	res, err := d.RetimeRobust(ctx, o)
	if err != nil {
		return nil, err
	}
	w.d, w.opts, w.res = d, opt, res
	return w, nil
}

// Design returns the design of the last successfully solved state.
func (w *WarmState) Design() *Design { return w.d }

// Result returns the last committed solve result.
func (w *WarmState) Result() *RobustResult { return w.res }

// Options returns the options of the last committed solve.
func (w *WarmState) Options() RobustOptions { return w.opts }

// RetimeDelta applies ops to the warm netlist and re-solves under opt.
// The warm path runs when the structural change stays under
// sessionDirtyThreshold and the analysis options (which key the
// observability cache) are unchanged; otherwise the delta falls back to
// a cold full solve, which is RetimeRobust of the mutated netlist. On
// success the warm state advances to the answer.
func (w *WarmState) RetimeDelta(ctx context.Context, ops []DeltaOp, opt RobustOptions) (*RobustResult, DeltaStats, error) {
	stats := DeltaStats{Structural: len(ops) > 0, ChangedNodes: len(ops)}
	if err := opt.validate("serretime.RetimeDelta"); err != nil {
		return nil, stats, err
	}
	d := w.d
	if len(ops) > 0 {
		c := w.d.c.Clone()
		n, err := ApplyDeltaOps(c, ops)
		stats.ChangedNodes = n
		if err != nil {
			return nil, stats, err
		}
		if d, err = newDesign(c); err != nil {
			return nil, stats, err
		}
	}
	_, _, gates, _ := d.c.Counts()
	if gates > 0 {
		stats.DirtyFrac = float64(stats.ChangedNodes) / float64(gates)
	}

	switch {
	case opt.Analysis.normalized() != w.opts.Analysis.normalized():
		stats.FallbackReason = "analysis-options-changed"
	case opt.RetimeOptions.Engine != EngineClosure:
		stats.FallbackReason = "engine-not-closure"
	case stats.DirtyFrac > sessionDirtyThreshold:
		stats.FallbackReason = fmt.Sprintf("dirty-frac %.2f > %.2f", stats.DirtyFrac, sessionDirtyThreshold)
	default:
		stats.Warm = true
	}

	memo := w.memo
	if stats.Structural {
		// The init memo holds min-period retimings of the old graph.
		memo = &initCache{}
	}
	o := opt
	o.RetimeOptions.warmStart = stats.Warm
	o.RetimeOptions.initMemo = memo
	res, err := d.RetimeRobust(ctx, o)
	if err != nil {
		return nil, stats, err
	}
	w.d, w.opts, w.memo, w.res = d, opt, memo, res
	return res, stats, nil
}
