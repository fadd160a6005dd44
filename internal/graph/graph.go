// Package graph implements the Leiserson–Saxe retiming graph G = (V, E)
// extracted from a sequential circuit.
//
// Vertices are the combinational gates plus a distinguished host vertex
// representing the environment; each edge carries a non-negative register
// count w(e), and each vertex a delay d(v). A retiming is an integer vertex
// labeling r with r(host) = 0; the retimed register count of an edge is
// w_r(u,v) = w(u,v) + r(v) - r(u).
//
// FromCircuit extracts the graph of any circuit, with no error to return:
// circuit.FromNodes already rejected every netlist that has none (a
// combinational cycle, or a loop of flip-flops with no gate). Each gate's
// delay comes from one fixed model keyed by its function and fanin.
//
// The representation is flat and index-based (DESIGN.md §15): edge
// attributes live in parallel slices indexed by EdgeID, and the adjacency
// is compressed-sparse-row — one contiguous EdgeID array per direction
// with an offset array beside it. Out(v) and In(v) return sub-slices of
// the packed arrays, so iteration touches consecutive memory and the
// whole graph costs O(1) allocations per direction regardless of |V|.
package graph

import (
	"fmt"
	"math"

	"serretime/internal/circuit"
)

// VertexID indexes a vertex. The host is always vertex 0.
type VertexID int32

// Host is the environment vertex: primary inputs are its out-edges and
// primary outputs its in-edges. It is never retimed (r(Host) = 0).
const Host VertexID = 0

// EdgeID indexes an edge within a Graph.
type EdgeID int32

// Edge is a directed connection carrying registers.
type Edge struct {
	From, To VertexID
	// W is the register count of the edge in the base (unretimed) circuit.
	W int32
	// SrcPort distinguishes host out-edges by primary input (register
	// sharing groups); -1 for edges leaving ordinary vertices.
	SrcPort int32
}

// Graph is an immutable retiming graph. Retimings are separate r vectors.
type Graph struct {
	names []string
	delay []float64

	// Edge attributes as parallel slices indexed by EdgeID (the hot paths
	// — WR, label sweeps, W/D row fills — read single fields, so keeping
	// the fields in separate dense arrays beats an array-of-struct layout).
	eFrom, eTo []VertexID
	eW         []int32
	ePort      []int32

	// CSR adjacency: the out-edges of v are outList[outStart[v]:
	// outStart[v+1]] in ascending EdgeID order; likewise for in-edges.
	outStart []int32
	outList  []EdgeID
	inStart  []int32
	inList   []EdgeID

	// vertexOf maps a circuit gate node to its vertex, if the graph was
	// extracted from a circuit (nil otherwise).
	vertexOf map[circuit.NodeID]VertexID
	// nodeOf maps a vertex back to the circuit gate (InvalidNode for Host
	// or synthetic graphs).
	nodeOf []circuit.NodeID
}

// Builder constructs a Graph directly (used by tests and the generator;
// circuits use FromCircuit).
type Builder struct {
	g *Graph
}

// NewBuilder returns a builder whose graph already contains the host
// vertex (delay 0).
func NewBuilder() *Builder {
	g := &Graph{
		names: []string{"<host>"},
		delay: []float64{0},
		nodeOf: []circuit.NodeID{
			circuit.InvalidNode,
		},
	}
	return &Builder{g: g}
}

// AddVertex appends a vertex with the given name and delay.
func (b *Builder) AddVertex(name string, delay float64) VertexID {
	id := VertexID(len(b.g.names))
	b.g.names = append(b.g.names, name)
	b.g.delay = append(b.g.delay, delay)
	b.g.nodeOf = append(b.g.nodeOf, circuit.InvalidNode)
	return id
}

// AddEdge appends an edge with w registers.
func (b *Builder) AddEdge(from, to VertexID, w int32) EdgeID {
	return b.addEdge(from, to, w, -1)
}

func (b *Builder) addEdge(from, to VertexID, w int32, port int32) EdgeID {
	if w < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %d", w))
	}
	g := b.g
	id := EdgeID(len(g.eFrom))
	g.eFrom = append(g.eFrom, from)
	g.eTo = append(g.eTo, to)
	g.eW = append(g.eW, w)
	g.ePort = append(g.ePort, port)
	return id
}

// Build packs the CSR adjacency and returns the graph. No vertices or
// edges may be added afterwards.
func (b *Builder) Build() *Graph {
	g := b.g
	n := len(g.names)
	m := len(g.eFrom)
	g.outStart = make([]int32, n+1)
	g.inStart = make([]int32, n+1)
	for i := 0; i < m; i++ {
		g.outStart[g.eFrom[i]+1]++
		g.inStart[g.eTo[i]+1]++
	}
	for v := 0; v < n; v++ {
		g.outStart[v+1] += g.outStart[v]
		g.inStart[v+1] += g.inStart[v]
	}
	g.outList = make([]EdgeID, m)
	g.inList = make([]EdgeID, m)
	outNext := append([]int32(nil), g.outStart[:n]...)
	inNext := append([]int32(nil), g.inStart[:n]...)
	// Ascending EdgeID fill keeps every per-vertex list in ascending edge
	// order (the order incremental append used to produce).
	for i := 0; i < m; i++ {
		f, t := g.eFrom[i], g.eTo[i]
		g.outList[outNext[f]] = EdgeID(i)
		outNext[f]++
		g.inList[inNext[t]] = EdgeID(i)
		inNext[t]++
	}
	return g
}

// NumVertices returns the vertex count including the host.
func (g *Graph) NumVertices() int { return len(g.names) }

// NumGates returns |V|: the combinational gate count (vertices minus host).
func (g *Graph) NumGates() int { return len(g.names) - 1 }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.eFrom) }

// Name returns the vertex name.
func (g *Graph) Name(v VertexID) string { return g.names[v] }

// Delay returns d(v).
func (g *Graph) Delay(v VertexID) float64 { return g.delay[v] }

// Edge returns the edge record, assembled from the parallel attribute
// arrays. Hot paths that need only an endpoint should use EdgeFrom or
// EdgeTo instead.
func (g *Graph) Edge(e EdgeID) Edge {
	return Edge{From: g.eFrom[e], To: g.eTo[e], W: g.eW[e], SrcPort: g.ePort[e]}
}

// EdgeFrom returns the source vertex of e.
func (g *Graph) EdgeFrom(e EdgeID) VertexID { return g.eFrom[e] }

// EdgeTo returns the target vertex of e.
func (g *Graph) EdgeTo(e EdgeID) VertexID { return g.eTo[e] }

// Out returns the out-edge IDs of v, a sub-slice of the packed CSR
// adjacency in ascending EdgeID order. Callers must not modify it.
func (g *Graph) Out(v VertexID) []EdgeID { return g.outList[g.outStart[v]:g.outStart[v+1]] }

// In returns the in-edge IDs of v, a sub-slice of the packed CSR
// adjacency in ascending EdgeID order. Callers must not modify it.
func (g *Graph) In(v VertexID) []EdgeID { return g.inList[g.inStart[v]:g.inStart[v+1]] }

// VertexOf returns the vertex extracted for a circuit gate node.
func (g *Graph) VertexOf(n circuit.NodeID) (VertexID, bool) {
	v, ok := g.vertexOf[n]
	return v, ok
}

// NodeOf returns the circuit gate node a vertex was extracted from, or
// circuit.InvalidNode for the host or synthetic graphs.
func (g *Graph) NodeOf(v VertexID) circuit.NodeID { return g.nodeOf[v] }

// Retiming is a vertex labeling r: V -> Z with r[Host] fixed at 0.
type Retiming []int32

// NewRetiming returns the zero retiming for g.
func NewRetiming(g *Graph) Retiming { return make(Retiming, g.NumVertices()) }

// Clone copies the retiming.
func (r Retiming) Clone() Retiming { return append(Retiming(nil), r...) }

// WR returns the retimed register count w_r(e) = w(e) + r(to) - r(from).
func (g *Graph) WR(e EdgeID, r Retiming) int32 {
	return g.eW[e] + r[g.eTo[e]] - r[g.eFrom[e]]
}

// EdgeWeights materializes w_r for every edge under r, indexed by EdgeID.
// The slice is the representation the incremental solver state keeps
// current across tentative moves (see internal/solverstate).
func (g *Graph) EdgeWeights(r Retiming) []int32 {
	wr := make([]int32, len(g.eW))
	for i := range g.eW {
		wr[i] = g.eW[i] + r[g.eTo[i]] - r[g.eFrom[i]]
	}
	return wr
}

// CheckLegal verifies r(Host) = 0 and w_r(e) >= 0 on every edge (P0).
func (g *Graph) CheckLegal(r Retiming) error {
	if len(r) != g.NumVertices() {
		return fmt.Errorf("graph: retiming length %d, want %d", len(r), g.NumVertices())
	}
	if r[Host] != 0 {
		return fmt.Errorf("graph: host retimed (r=%d)", r[Host])
	}
	for i := range g.eW {
		if w := g.WR(EdgeID(i), r); w < 0 {
			return fmt.Errorf("graph: edge %s->%s has w_r=%d", g.names[g.eFrom[i]], g.names[g.eTo[i]], w)
		}
	}
	return nil
}

// TotalEdgeRegisters returns the summed per-edge register count under r
// (the register measure used by eq. 5 of the paper).
func (g *Graph) TotalEdgeRegisters(r Retiming) int64 {
	var n int64
	for i := range g.eW {
		n += int64(g.WR(EdgeID(i), r))
	}
	return n
}

// SharedRegisters returns the physical flip-flop count under r with
// max-sharing: registers on fanout edges of the same driver (and, for the
// host, the same primary input port) share a chain, costing the maximum
// w_r over the group.
func (g *Graph) SharedRegisters(r Retiming) int64 {
	var n int64
	for v := 0; v < g.NumVertices(); v++ {
		if VertexID(v) == Host {
			// Group host out-edges by source port.
			maxPort := make(map[int32]int32)
			for _, e := range g.Out(Host) {
				w := g.WR(e, r)
				p := g.ePort[e]
				if w > maxPort[p] {
					maxPort[p] = w
				}
			}
			for _, w := range maxPort {
				n += int64(w)
			}
			continue
		}
		var mx int32
		for _, e := range g.Out(VertexID(v)) {
			if w := g.WR(e, r); w > mx {
				mx = w
			}
		}
		n += int64(mx)
	}
	return n
}

// ZeroWeightTopo returns the vertices (excluding Host) in a topological
// order of the subgraph of edges with w_r = 0, ignoring edges incident to
// the host (the environment is a timing barrier). An error is returned if
// the zero-weight subgraph has a cycle, which means the retimed circuit is
// not a synchronous circuit.
func (g *Graph) ZeroWeightTopo(r Retiming) ([]VertexID, error) {
	n := g.NumVertices()
	indeg := make([]int32, n)
	for i := range g.eW {
		if g.eFrom[i] == Host || g.eTo[i] == Host {
			continue
		}
		if g.WR(EdgeID(i), r) == 0 {
			indeg[g.eTo[i]]++
		}
	}
	queue := make([]VertexID, 0, n)
	for v := 1; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	order := make([]VertexID, 0, n-1)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, eid := range g.Out(v) {
			to := g.eTo[eid]
			if to == Host || g.WR(eid, r) != 0 {
				continue
			}
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(order) != n-1 {
		return nil, fmt.Errorf("graph: zero-weight cycle under retiming (%d of %d vertices ordered)", len(order), n-1)
	}
	return order, nil
}

// ArrivalTimes computes the combinational arrival time at each vertex
// under r: A(v) = d(v) + max over zero-weight in-edges (u,v) of A(u),
// with registered and host inputs arriving at time 0. The second return
// value is the maximum arrival (the combinational critical path delay).
func (g *Graph) ArrivalTimes(r Retiming) ([]float64, float64, error) {
	order, err := g.ZeroWeightTopo(r)
	if err != nil {
		return nil, 0, err
	}
	arr := make([]float64, g.NumVertices())
	var crit float64
	for _, v := range order {
		a := 0.0
		for _, eid := range g.In(v) {
			from := g.eFrom[eid]
			if from == Host || g.WR(eid, r) != 0 {
				continue
			}
			if arr[from] > a {
				a = arr[from]
			}
		}
		arr[v] = a + g.delay[v]
		if arr[v] > crit {
			crit = arr[v]
		}
	}
	return arr, crit, nil
}

// Check verifies structural invariants of the graph itself: consistent
// adjacency, non-negative base weights, and at least one register on every
// cycle (the zero retiming must be synchronous).
func (g *Graph) Check() error {
	for i := range g.eW {
		if g.eW[i] < 0 {
			return fmt.Errorf("graph: edge %d negative weight", i)
		}
		if int(g.eFrom[i]) >= g.NumVertices() || int(g.eTo[i]) >= g.NumVertices() {
			return fmt.Errorf("graph: edge %d endpoint out of range", i)
		}
	}
	_, err := g.ZeroWeightTopo(NewRetiming(g))
	return err
}

// MaxDelay returns the largest vertex delay.
func (g *Graph) MaxDelay() float64 {
	mx := 0.0
	for _, d := range g.delay {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// MinDelay returns the smallest nonzero vertex delay (the fallback Rmin the
// paper uses for hold-infeasible circuits); 0 if the graph has no gates.
func (g *Graph) MinDelay() float64 {
	mn := math.Inf(1)
	for v := 1; v < len(g.delay); v++ {
		if g.delay[v] < mn {
			mn = g.delay[v]
		}
	}
	if math.IsInf(mn, 1) {
		return 0
	}
	return mn
}
