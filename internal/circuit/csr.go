package circuit

// CSR is the flat compressed-sparse-row view of a Circuit: every per-node
// attribute lives in a dense parallel slice indexed by NodeID, and the
// jagged Fanin/Fanout adjacency is packed into two contiguous edge arrays
// with offset arrays beside them. The analysis engines (sim, obs) walk
// these arrays instead of chasing *Node pointers: one cache line holds
// eight node kinds or sixteen offsets, and a whole evaluation pass touches
// O(1) allocations instead of O(nodes).
//
// A CSR is immutable and safe for concurrent readers. It is built once per
// Circuit by Circuit.CSR and cached; the circuit never changes, so the
// cache never goes stale. Callers must not modify any of the slices.
type CSR struct {
	// N is the node count; every slice below of per-node extent has len N.
	N int

	// Kind and Fn mirror Node.Kind / Node.Fn.
	Kind []Kind
	Fn   []Func

	// Level is the combinational depth: 0 for PIs, DFFs and constants,
	// 1 + max(fanin gate levels) for gates.
	Level []int32

	// Fanin adjacency: node i reads Fanin[FaninStart[i]:FaninStart[i+1]],
	// in input-pin order. FaninStart has N+1 entries.
	FaninStart []int32
	Fanin      []NodeID

	// Fanout adjacency, deduplicated and in ascending reader order,
	// packed the same way.
	FanoutStart []int32
	Fanout      []NodeID

	// Order is the combinational topological order of all nodes (the
	// TopoOrder result); RevOrder is Order reversed (the backward-pass
	// order of the ODC analysis); GateOrder is the KindGate subsequence of
	// Order (the forward evaluation order with source nodes skipped).
	Order     []NodeID
	RevOrder  []NodeID
	GateOrder []NodeID

	// PIs and POs are the primary inputs/outputs in declaration order;
	// IsPO is the PO membership mask.
	PIs, POs []NodeID
	IsPO     []bool
}

// FaninOf returns the fanin IDs of node n as a sub-slice of the packed
// edge array.
func (s *CSR) FaninOf(n NodeID) []NodeID {
	return s.Fanin[s.FaninStart[n]:s.FaninStart[n+1]]
}

// FanoutOf returns the fanout IDs of node n as a sub-slice of the packed
// edge array.
func (s *CSR) FanoutOf(n NodeID) []NodeID {
	return s.Fanout[s.FanoutStart[n]:s.FanoutStart[n+1]]
}

// CSR returns the flat view of the circuit, building and caching it on
// first use; concurrent callers share one build. The returned CSR is
// shared: callers must treat it as read-only.
func (c *Circuit) CSR() *CSR {
	c.csrOnce.Do(func() { c.csr = c.buildCSR() })
	return c.csr
}

func (c *Circuit) buildCSR() *CSR {
	n := len(c.nodes)
	s := &CSR{
		N:     n,
		Kind:  make([]Kind, n),
		Fn:    make([]Func, n),
		Level: make([]int32, n),
		Order: c.order,
		IsPO:  make([]bool, n),
		PIs:   append([]NodeID(nil), c.pis...),
		POs:   append([]NodeID(nil), c.pos...),
	}
	var nin, nout int
	for i := range c.nodes {
		nin += len(c.nodes[i].Fanin)
		nout += len(c.nodes[i].Fanout)
	}
	s.FaninStart = make([]int32, n+1)
	s.Fanin = make([]NodeID, 0, nin)
	s.FanoutStart = make([]int32, n+1)
	s.Fanout = make([]NodeID, 0, nout)
	gates := 0
	for i := range c.nodes {
		nd := &c.nodes[i]
		s.Kind[i] = nd.Kind
		s.Fn[i] = nd.Fn
		s.Fanin = append(s.Fanin, nd.Fanin...)
		s.FaninStart[i+1] = int32(len(s.Fanin))
		s.Fanout = append(s.Fanout, nd.Fanout...)
		s.FanoutStart[i+1] = int32(len(s.Fanout))
		if nd.Kind == KindGate {
			gates++
		}
	}
	s.RevOrder = make([]NodeID, n)
	s.GateOrder = make([]NodeID, 0, gates)
	for i, id := range c.order {
		s.RevOrder[n-1-i] = id
		if s.Kind[id] == KindGate {
			s.GateOrder = append(s.GateOrder, id)
			var lvl int32
			for _, f := range s.FaninOf(id) {
				if s.Kind[f] == KindGate && s.Level[f] >= lvl {
					lvl = s.Level[f]
				}
			}
			s.Level[id] = lvl + 1
		}
	}
	for _, po := range c.pos {
		s.IsPO[po] = true
	}
	return s
}
