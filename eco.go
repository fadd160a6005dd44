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
	"slices"

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

// ApplyDeltaOps returns the circuit that ops make of c, built through
// circuit.FromNodes; c itself is never modified. A new node takes the
// next ID, rm_node renumbers the nodes above the one it removes, and
// the primary outputs keep their order (mark_po appends, both PO ops
// are idempotent). Ops are checked in order, and the first that cannot
// apply rejects the delta with its index in the error; a result with a
// combinational cycle is rejected as a whole. Every rejection unwraps to
// guard.ErrParse.
func ApplyDeltaOps(c *circuit.Circuit, ops []DeltaOp) (*circuit.Circuit, error) {
	e := deltaEdit{c: c, nodes: make([]circuit.Node, c.NumNodes(), c.NumNodes()+len(ops))}
	for i := range e.nodes {
		e.nodes[i] = *c.Node(circuit.NodeID(i))
	}
	e.pos = append([]circuit.NodeID(nil), c.POs()...)
	for i, op := range ops {
		if err := e.apply(op); err != nil {
			return nil, fmt.Errorf("delta op %d: %w", i, err)
		}
	}
	out, err := circuit.FromNodes(c.Name, e.compact(), e.pos)
	if err != nil {
		return nil, fmt.Errorf("delta: %w", deltaErr("ops", "%v", err))
	}
	return out, nil
}

// deltaEdit is the node list a delta works on: c's nodes copied once,
// new nodes appended, and removed nodes left in place with an empty
// name until compact renumbers the rest. Fanin slices are shared with c
// until an op replaces them, and are never written through.
type deltaEdit struct {
	c       *circuit.Circuit
	nodes   []circuit.Node
	pos     []circuit.NodeID
	added   map[string]circuit.NodeID // nets declared by this delta
	removed int
}

func deltaErr(op, msgf string, args ...any) error {
	return guard.Optionf("serretime.ApplyDeltaOps", op, msgf, args...)
}

// lookup resolves a live net name.
func (e *deltaEdit) lookup(name string) (circuit.NodeID, bool) {
	if id, ok := e.added[name]; ok {
		return id, true
	}
	id, ok := e.c.Lookup(name)
	return id, ok && e.nodes[id].Name != ""
}

func (e *deltaEdit) resolve(op, name string) (circuit.NodeID, error) {
	id, ok := e.lookup(name)
	if !ok {
		return 0, deltaErr(op, "unknown net %q", name)
	}
	return id, nil
}

func (e *deltaEdit) resolveAll(op string, names []string) ([]circuit.NodeID, error) {
	out := make([]circuit.NodeID, len(names))
	for i, n := range names {
		id, err := e.resolve(op, n)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}

// add appends a node under a fresh, non-empty name.
func (e *deltaEdit) add(op string, nd circuit.Node) error {
	if nd.Name == "" {
		return deltaErr(op, "empty net name")
	}
	if _, dup := e.lookup(nd.Name); dup {
		return deltaErr(op, "net %q already exists", nd.Name)
	}
	if err := circuit.CheckFanin(nd.Kind, nd.Fn, len(nd.Fanin)); err != nil {
		return deltaErr(op, "net %q: %v", nd.Name, err)
	}
	if e.added == nil {
		e.added = make(map[string]circuit.NodeID)
	}
	e.added[nd.Name] = circuit.NodeID(len(e.nodes))
	e.nodes = append(e.nodes, nd)
	return nil
}

func (e *deltaEdit) apply(op DeltaOp) error {
	switch op.Op {
	case "add_gate":
		fn, ok := circuit.ParseFunc(op.Fn)
		if !ok {
			return deltaErr(op.Op, "unknown function %q", op.Fn)
		}
		fanin, err := e.resolveAll(op.Op, op.Fanin)
		if err != nil {
			return err
		}
		return e.add(op.Op, circuit.Node{Name: op.Name, Kind: circuit.KindGate, Fn: fn, Fanin: fanin})
	case "add_dff":
		fanin, err := e.resolveAll(op.Op, op.Fanin)
		if err != nil {
			return err
		}
		return e.add(op.Op, circuit.Node{Name: op.Name, Kind: circuit.KindDFF, Fanin: fanin})
	case "rewire":
		id, err := e.resolve(op.Op, op.Name)
		if err != nil {
			return err
		}
		fanin, err := e.resolveAll(op.Op, op.Fanin)
		if err != nil {
			return err
		}
		nd := &e.nodes[id]
		if nd.Kind == circuit.KindPI {
			return deltaErr(op.Op, "net %q is a primary input", nd.Name)
		}
		if err := circuit.CheckFanin(nd.Kind, nd.Fn, len(fanin)); err != nil {
			return deltaErr(op.Op, "net %q: %v", nd.Name, err)
		}
		nd.Fanin = fanin
		return nil
	case "rm_node":
		id, err := e.resolve(op.Op, op.Name)
		if err != nil {
			return err
		}
		for r := range e.nodes {
			if e.nodes[r].Name != "" && slices.Contains(e.nodes[r].Fanin, id) {
				return deltaErr(op.Op, "net %q is still read by %q", op.Name, e.nodes[r].Name)
			}
		}
		if slices.Contains(e.pos, id) {
			return deltaErr(op.Op, "net %q is still a primary output", op.Name)
		}
		delete(e.added, op.Name)
		e.nodes[id] = circuit.Node{}
		e.removed++
		return nil
	case "mark_po":
		id, err := e.resolve(op.Op, op.Name)
		if err != nil {
			return err
		}
		if !slices.Contains(e.pos, id) {
			e.pos = append(e.pos, id)
		}
		return nil
	case "unmark_po":
		id, err := e.resolve(op.Op, op.Name)
		if err != nil {
			return err
		}
		if i := slices.Index(e.pos, id); i >= 0 {
			e.pos = slices.Delete(e.pos, i, i+1)
		}
		return nil
	}
	return deltaErr("op", "unknown op %q", op.Op)
}

// compact drops the removed nodes and renumbers the rest, their fanins
// and the primary outputs, keeping every node's relative order; it
// returns the node list.
func (e *deltaEdit) compact() []circuit.Node {
	if e.removed == 0 {
		return e.nodes
	}
	newID := make([]circuit.NodeID, len(e.nodes))
	kept := e.nodes[:0]
	pins := 0
	for i, nd := range e.nodes {
		if nd.Name == "" {
			continue
		}
		newID[i] = circuit.NodeID(len(kept))
		kept = append(kept, nd)
		pins += len(nd.Fanin)
	}
	flat := make([]circuit.NodeID, pins)
	for i := range kept {
		n := len(kept[i].Fanin)
		fanin := flat[:n:n]
		flat = flat[n:]
		for j, f := range kept[i].Fanin {
			fanin[j] = newID[f]
		}
		kept[i].Fanin = fanin
	}
	for i, p := range e.pos {
		e.pos[i] = newID[p]
	}
	return kept
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
		c, err := ApplyDeltaOps(w.d.c, ops)
		if err != nil {
			return nil, err
		}
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
