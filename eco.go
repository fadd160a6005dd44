package serretime

// ECO sessions (DESIGN.md §17). A WarmState holds a parsed design and
// the last committed result between solves. Every session solve, the
// open and each delta alike, is RetimeRobust of the held netlist with
// the constraint engine bulk-seeded by the P0 requirement closure
// (RetimeOptions.warmStart). Seeding does not guarantee the lazy
// cascade's fixpoint: on most netlists a session answer is
// byte-identical to a from-scratch RetimeRobust of the same netlist
// (TestRetimeDeltaMatchesCold, and serbench -eco on every delta), but a
// MinObsWin solve can settle on a different legal retiming (s15850.1 at
// the serve scale; TestSeededVsLazyTableI).

import (
	"context"
	"fmt"

	"serretime/internal/circuit"
	"serretime/internal/guard"
)

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

// ApplyDeltaOps applies ops to c in place. On error the circuit may be
// partially edited — apply to a Clone when the original must survive a
// bad delta. Acyclicity is not checked here; building a Design from the
// result (newDesign → graph extraction) rejects combinational cycles.
func ApplyDeltaOps(c *circuit.Circuit, ops []DeltaOp) error {
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
			return fmt.Errorf("delta op %d: %w", i, err)
		}
	}
	return nil
}

// WarmState is the solver state an ECO session keeps alive between
// deltas: the design of the last solved netlist, its options and its
// result. Keeping the Design skips the re-parse, and across a delta
// without ops it also keeps the observability cache. It is not safe for
// concurrent use; the service serializes access with a per-session
// mutex. Failed deltas do not advance the state: the session still
// answers for the last successfully solved netlist.
type WarmState struct {
	d    *Design
	opts RobustOptions
	res  *RobustResult
}

// NewWarmState solves d with seeded constraint discovery (fewer
// discovery steps, usually the same bytes as RetimeRobust; see the file
// comment) and wraps the result as session state. It is the session's
// first delta, one without ops.
func NewWarmState(ctx context.Context, d *Design, opt RobustOptions) (*WarmState, error) {
	w := &WarmState{d: d}
	if _, err := w.RetimeDelta(ctx, nil, opt); err != nil {
		return nil, err
	}
	return w, nil
}

// Design returns the design of the last successfully solved state.
func (w *WarmState) Design() *Design { return w.d }

// Result returns the last committed solve result.
func (w *WarmState) Result() *RobustResult { return w.res }

// Options returns the options of the last committed solve.
func (w *WarmState) Options() RobustOptions { return w.opts }

// RetimeDelta applies ops to a copy of the session netlist and solves
// it under opt: RetimeRobust with seeded constraint discovery, the one
// solve a session runs. A delta without ops re-solves the held Design
// itself, so its observability cache answers again when opt keeps the
// analysis options. On success the state advances to the answer.
func (w *WarmState) RetimeDelta(ctx context.Context, ops []DeltaOp, opt RobustOptions) (*RobustResult, error) {
	d := w.d
	if len(ops) > 0 {
		c := w.d.c.Clone()
		if err := ApplyDeltaOps(c, ops); err != nil {
			return nil, err
		}
		var err error
		if d, err = newDesign(c); err != nil {
			return nil, err
		}
	}
	seeded := opt
	seeded.RetimeOptions.warmStart = true
	res, err := d.RetimeRobust(ctx, seeded)
	if err != nil {
		return nil, err
	}
	w.d, w.opts, w.res = d, opt, res
	return res, nil
}
