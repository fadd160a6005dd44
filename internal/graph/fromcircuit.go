package graph

import "serretime/internal/circuit"

// gateDelay is the one delay model: a base delay per gate function plus
// a loading penalty per input beyond two. The scale is unit-like (an
// inverter is 1.0), matching the regime the paper inherits from [23]:
// the hold time Th = 2 spans more than one fast gate, so setup+hold
// retiming must keep at least two gate delays between registers — which
// is exactly what makes the ELW constraint P2' bite.
func gateDelay(fn circuit.Func, fanin int) float64 {
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
// returns the first non-DFF node, a gate or a primary input, together
// with the number of DFFs crossed. The walk ends because a circuit has
// no loop of flip-flops without a gate (circuit.FromNodes rejects one).
func effectiveDriver(c *circuit.Circuit, n circuit.NodeID) (circuit.NodeID, int32) {
	var regs int32
	for c.Node(n).Kind == circuit.KindDFF {
		regs++
		n = c.Node(n).Fanin[0]
	}
	return n, regs
}

// FromCircuit extracts the retiming graph of a sequential circuit:
// one vertex per combinational gate plus the host; one edge per gate input
// pin (and per primary-output net), weighted with the number of flip-flops
// on the connection. Pure DFF-to-DFF chains collapse into edge weights.
// Every circuit has one: it has no combinational cycle, so every cycle of
// the graph carries a register, and its register chains all end at a gate
// or a primary input.
//
// Connections from a primary input directly to a primary output (with or
// without flip-flops) carry no retimable logic and are dropped.
func FromCircuit(c *circuit.Circuit) *Graph {
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
		v := b.AddVertex(nd.Name, gateDelay(nd.Fn, len(nd.Fanin)))
		g.vertexOf[n] = v
		g.nodeOf[v] = n
	}

	// resolve maps a driving net to (vertex, weight, port).
	resolve := func(n circuit.NodeID) (VertexID, int32, int32) {
		drv, w := effectiveDriver(c, n)
		if c.Node(drv).Kind == circuit.KindPI {
			return Host, w, piPort[drv]
		}
		return g.vertexOf[drv], w, -1
	}

	// Edges: one per gate input pin.
	for _, n := range c.NodesOfKind(circuit.KindGate) {
		to := g.vertexOf[n]
		for _, fin := range c.Node(n).Fanin {
			from, w, port := resolve(fin)
			b.addEdge(from, to, w, port)
		}
	}
	// Edges: one per primary output net into the host.
	for _, po := range c.POs() {
		from, w, _ := resolve(po)
		if from == Host {
			continue // PI feeding a PO directly: nothing retimable
		}
		b.addEdge(from, Host, w, -1)
	}
	return b.Build()
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
