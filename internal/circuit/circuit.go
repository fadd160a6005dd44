// Package circuit models gate-level sequential netlists: combinational
// gates, D flip-flops, primary inputs and primary outputs.
//
// It is the structural substrate for everything else in this module: the
// .bench parser produces a Circuit, the logic simulator evaluates one, the
// retiming graph is extracted from one, and a retimed graph is materialized
// back into one for equivalence checking.
//
// A Circuit never changes once built. FromNodes is its one constructor
// (Builder.Build resolves names and calls it); an edit, such as an ECO
// delta, builds a new circuit from a copy of the old one's nodes.
//
// FromNodes is also where a netlist is checked, once: fanin arities, no
// combinational cycle, and no loop of flip-flops without a gate, so every
// circuit has a retiming graph (package graph). It keeps the topological
// order that proves acyclicity, so TopoOrder, CSR and Stats cannot fail.
package circuit

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// NodeID indexes a node within a Circuit. IDs are dense: 0..len(Nodes)-1.
type NodeID int32

// InvalidNode is the zero-meaning sentinel for "no node".
const InvalidNode NodeID = -1

// Kind classifies a node.
type Kind uint8

const (
	// KindPI is a primary input.
	KindPI Kind = iota
	// KindGate is a combinational gate; its function is Node.Fn.
	KindGate
	// KindDFF is an edge-triggered D flip-flop with a single data input.
	KindDFF
)

func (k Kind) String() string {
	switch k {
	case KindPI:
		return "PI"
	case KindGate:
		return "GATE"
	case KindDFF:
		return "DFF"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Func is a combinational gate function.
type Func uint8

const (
	// FnBuf is the identity function of one input.
	FnBuf Func = iota
	// FnNot is inversion of one input.
	FnNot
	// FnAnd is the conjunction of all inputs.
	FnAnd
	// FnNand is the negated conjunction.
	FnNand
	// FnOr is the disjunction of all inputs.
	FnOr
	// FnNor is the negated disjunction.
	FnNor
	// FnXor is the parity of all inputs.
	FnXor
	// FnXnor is the negated parity.
	FnXnor
	// FnConst0 is the constant 0 (no inputs).
	FnConst0
	// FnConst1 is the constant 1 (no inputs).
	FnConst1
)

var funcNames = [...]string{
	FnBuf: "BUF", FnNot: "NOT", FnAnd: "AND", FnNand: "NAND",
	FnOr: "OR", FnNor: "NOR", FnXor: "XOR", FnXnor: "XNOR",
	FnConst0: "CONST0", FnConst1: "CONST1",
}

func (f Func) String() string {
	if int(f) < len(funcNames) {
		return funcNames[f]
	}
	return fmt.Sprintf("Func(%d)", uint8(f))
}

// ParseFunc resolves a gate function by its canonical name (the String
// form, case-insensitive). Used by the parsers and the ECO delta codec.
func ParseFunc(name string) (Func, bool) {
	for f, n := range funcNames {
		if strings.EqualFold(name, n) {
			return Func(f), true
		}
	}
	return 0, false
}

// MinInputs returns the minimum legal fanin count for the function.
func (f Func) MinInputs() int {
	switch f {
	case FnConst0, FnConst1:
		return 0
	case FnBuf, FnNot:
		return 1
	default:
		return 2
	}
}

// MaxInputs returns the maximum legal fanin count, or -1 for unbounded.
func (f Func) MaxInputs() int {
	switch f {
	case FnConst0, FnConst1:
		return 0
	case FnBuf, FnNot:
		return 1
	default:
		return -1
	}
}

// Eval computes the function over word-parallel input signatures: each
// uint64 carries 64 independent simulation vectors.
func (f Func) Eval(in []uint64) uint64 {
	switch f {
	case FnConst0:
		return 0
	case FnConst1:
		return ^uint64(0)
	case FnBuf:
		return in[0]
	case FnNot:
		return ^in[0]
	case FnAnd, FnNand:
		v := ^uint64(0)
		for _, x := range in {
			v &= x
		}
		if f == FnNand {
			v = ^v
		}
		return v
	case FnOr, FnNor:
		var v uint64
		for _, x := range in {
			v |= x
		}
		if f == FnNor {
			v = ^v
		}
		return v
	case FnXor, FnXnor:
		var v uint64
		for _, x := range in {
			v ^= x
		}
		if f == FnXnor {
			v = ^v
		}
		return v
	}
	panic(fmt.Sprintf("circuit: Eval of unknown function %d", uint8(f)))
}

// EvalFanin computes the function over fanin signatures read directly from
// a node-major value plane: input j is vals[int(fanin[j])*stride+w]. It is
// Eval without the gather copy — the word operations run in the same order
// over the same values, so the result is bit-identical.
func (f Func) EvalFanin(vals []uint64, fanin []NodeID, stride, w int) uint64 {
	switch f {
	case FnConst0:
		return 0
	case FnConst1:
		return ^uint64(0)
	case FnBuf:
		return vals[int(fanin[0])*stride+w]
	case FnNot:
		return ^vals[int(fanin[0])*stride+w]
	case FnAnd, FnNand:
		v := ^uint64(0)
		for _, fid := range fanin {
			v &= vals[int(fid)*stride+w]
		}
		if f == FnNand {
			v = ^v
		}
		return v
	case FnOr, FnNor:
		var v uint64
		for _, fid := range fanin {
			v |= vals[int(fid)*stride+w]
		}
		if f == FnNor {
			v = ^v
		}
		return v
	case FnXor, FnXnor:
		var v uint64
		for _, fid := range fanin {
			v ^= vals[int(fid)*stride+w]
		}
		if f == FnXnor {
			v = ^v
		}
		return v
	}
	panic(fmt.Sprintf("circuit: EvalFanin of unknown function %d", uint8(f)))
}

// Node is one element of a circuit.
type Node struct {
	// Name is the net name of the node's output. Unique within a circuit.
	Name string
	// Kind classifies the node; Fn is meaningful only for KindGate.
	Kind Kind
	Fn   Func
	// Fanin lists driver nodes in input-pin order. Empty for PIs and
	// constants; exactly one entry for DFFs, NOT and BUF.
	Fanin []NodeID
	// Fanout lists reader nodes, deduplicated, in ascending ID order.
	// Derived by FromNodes; a node reading the same net twice appears once.
	Fanout []NodeID
}

// Circuit is an immutable gate-level netlist.
type Circuit struct {
	// Name identifies the design (e.g. the benchmark name).
	Name string

	nodes  []Node
	byName map[string]NodeID
	// pos lists the nodes whose output nets are primary outputs, in
	// declaration order. A node may be a PO and still drive other nodes.
	pos []NodeID
	// pis caches the primary inputs in declaration order.
	pis []NodeID
	// order is the combinational topological order validate proves
	// acyclicity with (see TopoOrder).
	order []NodeID

	// csr is the flat view (see csr.go), built once on first use.
	csr     *CSR
	csrOnce sync.Once
}

// NumNodes returns the total node count (PIs + gates + DFFs).
func (c *Circuit) NumNodes() int { return len(c.nodes) }

// Node returns the node with the given ID. The pointer stays valid for
// the circuit's life; callers must not modify the node or its slices.
func (c *Circuit) Node(id NodeID) *Node { return &c.nodes[id] }

// Lookup returns the node ID for a net name.
func (c *Circuit) Lookup(name string) (NodeID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// PIs returns the primary input IDs in declaration order. Callers must not
// modify the returned slice.
func (c *Circuit) PIs() []NodeID { return c.pis }

// POs returns the IDs of nodes whose outputs are primary outputs, in
// declaration order. Callers must not modify the returned slice.
func (c *Circuit) POs() []NodeID { return c.pos }

// Counts reports the number of PIs, POs, combinational gates and DFFs.
func (c *Circuit) Counts() (pis, pos, gates, dffs int) {
	for i := range c.nodes {
		switch c.nodes[i].Kind {
		case KindPI:
			pis++
		case KindGate:
			gates++
		case KindDFF:
			dffs++
		}
	}
	return pis, len(c.pos), gates, dffs
}

// TopoOrder returns all node IDs in a combinational topological order:
// every gate appears after all of its non-DFF fanins. DFFs and PIs are
// sources (their current-cycle outputs do not depend on current-cycle
// inputs), so they appear before any gate that reads them. The order is
// computed once, when the circuit is built; callers must not modify the
// returned slice.
func (c *Circuit) TopoOrder() []NodeID { return c.order }

// CheckFanin reports why a node of kind k (with function fn, for a
// gate) cannot read n nets, or nil if it can: a PI reads none, a DFF
// exactly one, and a gate between fn's MinInputs and MaxInputs.
func CheckFanin(k Kind, fn Func, n int) error {
	switch k {
	case KindPI:
		if n != 0 {
			return fmt.Errorf("a primary input has no fanin, got %d", n)
		}
	case KindDFF:
		if n != 1 {
			return fmt.Errorf("a DFF takes exactly 1 input, got %d", n)
		}
	case KindGate:
		if n < fn.MinInputs() || (fn.MaxInputs() >= 0 && n > fn.MaxInputs()) {
			return fmt.Errorf("%s cannot take %d inputs", fn, n)
		}
	}
	return nil
}

// validate checks what every built circuit guarantees, and keeps the
// topological order that proves the second point:
//
//   - every node's fanin arity (CheckFanin);
//   - no combinational cycle (Kahn's algorithm, sources first, then
//     gates in release order);
//   - no loop of flip-flops without a gate. The retiming graph has one
//     vertex per gate and folds each register chain into an edge weight,
//     so such a loop has no place in it.
func (c *Circuit) validate() error {
	n := len(c.nodes)
	for i := range c.nodes {
		nd := &c.nodes[i]
		if err := CheckFanin(nd.Kind, nd.Fn, len(nd.Fanin)); err != nil {
			return fmt.Errorf("circuit %q: node %q: %v", c.Name, nd.Name, err)
		}
	}
	order := make([]NodeID, 0, n)
	indeg := make([]int32, n)
	// mark dedups multi-pin fanins with a per-gate epoch (the gate index
	// itself); the register walk below reuses it as its stamp.
	mark := make([]int32, n)
	for i := range c.nodes {
		nd := &c.nodes[i]
		if nd.Kind != KindGate {
			continue // PIs and DFFs are sources
		}
		// Combinational in-degree counts only distinct gate fanins.
		epoch := int32(i) + 1
		for _, f := range nd.Fanin {
			if mark[f] == epoch {
				continue
			}
			mark[f] = epoch
			if c.nodes[f].Kind == KindGate {
				indeg[i]++
			}
		}
	}
	queue := make([]NodeID, 0, n)
	for i := range c.nodes {
		if c.nodes[i].Kind != KindGate || indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		if c.nodes[id].Kind != KindGate {
			// PI and DFF fanins never counted toward indeg (a DFF's
			// fanout belongs to the *next* cycle), so nothing to release.
			continue
		}
		for _, g := range c.nodes[id].Fanout {
			if c.nodes[g].Kind != KindGate {
				continue
			}
			indeg[g]--
			if indeg[g] == 0 {
				queue = append(queue, g)
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("circuit %q: combinational cycle detected (%d of %d nodes ordered)", c.Name, len(order), n)
	}
	// Walk each flip-flop chain back to its gate or primary input,
	// stamping its flip-flops with the walk's number. A walk stops at
	// the first stamped flip-flop: one stamped by an earlier walk leads
	// to a chain already cleared, one stamped by this walk closes a loop.
	clear(mark)
	for i := range c.nodes {
		walk, id := int32(i)+1, NodeID(i)
		for c.nodes[id].Kind == KindDFF && mark[id] == 0 {
			mark[id] = walk
			id = c.nodes[id].Fanin[0]
		}
		if c.nodes[id].Kind == KindDFF && mark[id] == walk {
			return fmt.Errorf("circuit %q: flip-flop %q is on a loop with no gate", c.Name, c.nodes[id].Name)
		}
	}
	c.order = order
	return nil
}

// Stats summarizes a circuit for reporting.
type Stats struct {
	PIs, POs, Gates, DFFs int
	// Depth is the maximum number of gates on any combinational path.
	Depth int
	// MaxFanout is the largest fanout of any node.
	MaxFanout int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	var s Stats
	s.PIs, s.POs, s.Gates, s.DFFs = c.Counts()
	depth := make([]int, len(c.nodes))
	for _, id := range c.order {
		nd := &c.nodes[id]
		if nd.Kind != KindGate {
			continue
		}
		d := 0
		for _, f := range nd.Fanin {
			if c.nodes[f].Kind == KindGate && depth[f] > d {
				d = depth[f]
			}
		}
		depth[id] = d + 1
		if depth[id] > s.Depth {
			s.Depth = depth[id]
		}
	}
	for i := range c.nodes {
		if len(c.nodes[i].Fanout) > s.MaxFanout {
			s.MaxFanout = len(c.nodes[i].Fanout)
		}
	}
	return s
}

// NodesOfKind returns all node IDs of the given kind in ascending order.
func (c *Circuit) NodesOfKind(k Kind) []NodeID {
	var out []NodeID
	for i := range c.nodes {
		if c.nodes[i].Kind == k {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// SortedNames returns all net names in lexicographic order (for
// deterministic output).
func (c *Circuit) SortedNames() []string {
	names := make([]string, 0, len(c.nodes))
	for i := range c.nodes {
		names = append(names, c.nodes[i].Name)
	}
	sort.Strings(names)
	return names
}
