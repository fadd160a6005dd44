package graph

import (
	"fmt"

	"serretime/internal/circuit"
)

// DelayModel assigns a propagation delay to a combinational gate.
type DelayModel interface {
	Delay(fn circuit.Func, fanin int) float64
}

// TypeDelays is the default deterministic delay model: a base delay per
// gate function plus a loading penalty per input beyond two. The scale is
// unit-like (an inverter is 1.0), matching the regime the paper inherits
// from [23]: the hold time Th = 2 spans more than one fast gate, so
// setup+hold retiming must keep at least two gate delays between
// registers — which is exactly what makes the ELW constraint P2' bite.
type TypeDelays struct{}

// Delay implements DelayModel.
func (TypeDelays) Delay(fn circuit.Func, fanin int) float64 {
	var base float64
	switch fn {
	case circuit.FnConst0, circuit.FnConst1:
		base = 0
	case circuit.FnBuf, circuit.FnNot:
		base = 1
	case circuit.FnNand, circuit.FnNor:
		base = 2
	case circuit.FnAnd, circuit.FnOr:
		base = 3
	case circuit.FnXor, circuit.FnXnor:
		base = 4
	default:
		base = 2
	}
	if fanin > 2 {
		base += float64(fanin-2) * 0.5
	}
	return base
}

// effectiveDriver walks backward through a chain of DFFs from node n and
// returns the first non-DFF node together with the number of DFFs crossed.
func effectiveDriver(c *circuit.Circuit, n circuit.NodeID) (circuit.NodeID, int32, error) {
	var regs int32
	for c.Node(n).Kind == circuit.KindDFF {
		regs++
		n = c.Node(n).Fanin[0]
		if regs > int32(c.NumNodes()) {
			return circuit.InvalidNode, 0, fmt.Errorf("graph: DFF cycle with no gate at node %q", c.Node(n).Name)
		}
	}
	return n, regs, nil
}

// FromCircuit extracts the retiming graph of a sequential circuit:
// one vertex per combinational gate plus the host; one edge per gate input
// pin (and per primary-output net), weighted with the number of flip-flops
// on the connection. Pure DFF-to-DFF chains collapse into edge weights.
//
// Connections from a primary input directly to a primary output (with or
// without flip-flops) carry no retimable logic and are dropped.
func FromCircuit(c *circuit.Circuit, dm DelayModel) (*Graph, error) {
	if dm == nil {
		dm = TypeDelays{}
	}
	b := NewBuilder()
	g := b.g
	g.vertexOf = make(map[circuit.NodeID]VertexID)

	// Port numbers for PIs (register-sharing groups on host out-edges).
	piPort := make(map[circuit.NodeID]int32, len(c.PIs()))
	for i, pi := range c.PIs() {
		piPort[pi] = int32(i)
	}

	// Vertices: all combinational gates.
	for _, n := range c.NodesOfKind(circuit.KindGate) {
		nd := c.Node(n)
		v := b.AddVertex(nd.Name, dm.Delay(nd.Fn, len(nd.Fanin)))
		g.vertexOf[n] = v
		g.nodeOf[v] = n
	}

	// resolve maps a driving net to (vertex, weight, port).
	resolve := func(n circuit.NodeID) (VertexID, int32, int32, error) {
		drv, w, err := effectiveDriver(c, n)
		if err != nil {
			return 0, 0, 0, err
		}
		switch c.Node(drv).Kind {
		case circuit.KindPI:
			return Host, w, piPort[drv], nil
		case circuit.KindGate:
			return g.vertexOf[drv], w, -1, nil
		}
		return 0, 0, 0, fmt.Errorf("graph: unresolvable driver %q", c.Node(drv).Name)
	}

	// Edges: one per gate input pin.
	for _, n := range c.NodesOfKind(circuit.KindGate) {
		to := g.vertexOf[n]
		for _, fin := range c.Node(n).Fanin {
			from, w, port, err := resolve(fin)
			if err != nil {
				return nil, err
			}
			b.addEdge(from, to, w, port)
		}
	}
	// Edges: one per primary output net into the host.
	for _, po := range c.POs() {
		from, w, port, err := resolve(po)
		if err != nil {
			return nil, err
		}
		if from == Host {
			continue // PI feeding a PO directly: nothing retimable
		}
		_ = port
		b.addEdge(from, Host, w, -1)
	}
	gr := b.Build()
	if err := gr.Check(); err != nil {
		return nil, err
	}
	return gr, nil
}

// Rebase returns a new graph identical to g but with base weights w_r
// (the given retiming applied permanently) so that the zero retiming of the
// result equals r on g. The retiming must be legal.
func (g *Graph) Rebase(r Retiming) (*Graph, error) {
	if err := g.CheckLegal(r); err != nil {
		return nil, err
	}
	// Everything but the base weights is shared: names, delays, the edge
	// endpoint arrays and the CSR adjacency are immutable.
	out := &Graph{
		names:    g.names,
		delay:    g.delay,
		eFrom:    g.eFrom,
		eTo:      g.eTo,
		eW:       make([]int32, len(g.eW)),
		ePort:    g.ePort,
		outStart: g.outStart,
		outList:  g.outList,
		inStart:  g.inStart,
		inList:   g.inList,
		vertexOf: g.vertexOf,
		nodeOf:   g.nodeOf,
	}
	for i := range g.eW {
		out.eW[i] = g.WR(EdgeID(i), r)
	}
	return out, nil
}
