package graph

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"serretime/internal/circuit"
)

// Rebuilt is a circuit materialized from a retimed graph.
type Rebuilt struct {
	// C is the retimed circuit.
	C *circuit.Circuit
	// Chains maps a driver net name (gate output or primary input) to the
	// DFF node IDs of its register chain in C, ordered from the driver
	// outward: Chains[x][0] reads x directly.
	Chains map[string][]circuit.NodeID
	// POTaps lists, for each primary output of the original circuit (in
	// c.POs() order), the node of C now driving it. Two original outputs
	// may map to the same node (shared chain tap), in which case C's own
	// PO list is shorter than POTaps.
	POTaps []circuit.NodeID
}

// tapRef names the net a retimed pin reads: the w-th register of the
// chain on driver drv, or drv itself when w = 0.
type tapRef struct {
	drv circuit.NodeID
	w   int32
}

// netInfo is Rebuild's per-node record for the nets it keeps (primary
// inputs and gates), indexed by the node's ID in the original circuit.
type netInfo struct {
	// id is the node's ID in the rebuilt circuit; chain is the ID of the
	// first register of its chain, whose need registers follow in order.
	id, chain circuit.NodeID
	need      int32
}

// Rebuild materializes the retiming r of graph g (extracted from circuit c
// by FromCircuit) into a new circuit. Register chains are max-shared per
// driver net, so the resulting flip-flop count equals g.SharedRegisters(r).
//
// Primary-input-to-primary-output connections that never pass a gate are
// preserved verbatim (they are not represented in the graph).
//
// Every node's ID is fixed before the circuit is built: the primary
// inputs in order, then the register chain of each driver net with
// registers, drivers in name order, then the gates in their original
// order. The N-th register of the chain on net x is named x$rN. When a
// primary input or gate of c already carries that name, the register
// takes x$rN$K for the smallest K ≥ 1 that names no kept net; such a name
// cannot equal another register's, since the suffixes parse back to a
// unique (x, N, K).
func Rebuild(c *circuit.Circuit, g *Graph, r Retiming) (*Rebuilt, error) {
	if g.vertexOf == nil {
		return nil, fmt.Errorf("graph: Rebuild requires a circuit-extracted graph")
	}
	if err := g.CheckLegal(r); err != nil {
		return nil, err
	}
	n := c.NumNodes()
	pis, pos := c.PIs(), c.POs()

	// rOf[x] is the retiming at the vertex of gate x, and r(Host) at a
	// primary input.
	rOf := make([]int32, n)
	for v := 1; v < len(g.nodeOf); v++ {
		if x := g.nodeOf[v]; x >= 0 && int(x) < n {
			rOf[x] = r[v]
		}
	}
	pinCount, gates := 0, 0
	for x := 0; x < n; x++ {
		if nd := c.Node(circuit.NodeID(x)); nd.Kind == circuit.KindGate {
			pinCount += len(nd.Fanin)
			gates++
		}
	}

	// Pass 1: resolve the retimed register count of every gate pin (in
	// gate order) and PO net, and the chain length each driver needs.
	info := make([]netInfo, n)
	refs := make([]tapRef, 0, pinCount+len(pos))
	for x := 0; x < n; x++ {
		nd := c.Node(circuit.NodeID(x))
		if nd.Kind != circuit.KindGate {
			continue
		}
		for _, fin := range nd.Fanin {
			drv, w, err := effectiveDriver(c, fin)
			if err != nil {
				return nil, err
			}
			nw := w + rOf[x] - rOf[drv]
			if nw < 0 {
				return nil, fmt.Errorf("graph: pin of %q gets %d registers", c.Node(drv).Name, nw)
			}
			refs = append(refs, tapRef{drv, nw})
			info[drv].need = max(info[drv].need, nw)
		}
	}
	for _, po := range pos {
		drv, w, err := effectiveDriver(c, po)
		if err != nil {
			return nil, err
		}
		nw := w // a PI feeding a PO has no graph edge: registers preserved verbatim
		if c.Node(drv).Kind == circuit.KindGate {
			nw = w - rOf[drv]
		}
		if nw < 0 {
			return nil, fmt.Errorf("graph: PO of %q gets %d registers", c.Node(drv).Name, nw)
		}
		refs = append(refs, tapRef{drv, nw})
		info[drv].need = max(info[drv].need, nw)
	}

	// Pass 2: fix every ID.
	var drivers []circuit.NodeID
	regs := 0
	for x := range info {
		if info[x].need > 0 {
			drivers = append(drivers, circuit.NodeID(x))
			regs += int(info[x].need)
		}
	}
	slices.SortFunc(drivers, func(a, b circuit.NodeID) int {
		return strings.Compare(c.Node(a).Name, c.Node(b).Name)
	})
	for i, pi := range pis {
		info[pi].id = circuit.NodeID(i)
	}
	next := circuit.NodeID(len(pis))
	for _, x := range drivers {
		info[x].chain = next
		next += circuit.NodeID(info[x].need)
	}
	for x := 0; x < n; x++ {
		if c.Node(circuit.NodeID(x)).Kind == circuit.KindGate {
			info[x].id = next
			next++
		}
	}
	tap := func(t tapRef) circuit.NodeID {
		if t.w == 0 {
			return info[t.drv].id
		}
		return info[t.drv].chain + circuit.NodeID(t.w-1)
	}

	// Pass 3: emit the nodes. fanin holds every pin, one per register and
	// then the gates' pins in order. The register names are substrings of
	// one strings.Builder, sized up front, whose later writes only extend
	// its content.
	nodes := make([]circuit.Node, len(pis)+regs+gates)
	for i, pi := range pis {
		nodes[i] = circuit.Node{Name: c.Node(pi).Name, Kind: circuit.KindPI}
	}
	size := 0
	for _, x := range drivers {
		need := info[x].need
		size += int(need) * (len(c.Node(x).Name) + 2 + len(strconv.Itoa(int(need))))
	}
	var sb strings.Builder
	sb.Grow(size)
	var digits [20]byte
	fanin := make([]circuit.NodeID, regs+pinCount)
	chainIDs := make([]circuit.NodeID, regs)
	chains := make(map[string][]circuit.NodeID, len(drivers))
	k := 0
	for _, x := range drivers {
		first := k
		for j := int32(1); j <= info[x].need; j++ {
			start := sb.Len()
			sb.WriteString(c.Node(x).Name)
			sb.WriteString("$r")
			sb.Write(strconv.AppendInt(digits[:0], int64(j), 10))
			id := info[x].chain + circuit.NodeID(j-1)
			fanin[k] = id - 1
			if j == 1 {
				fanin[k] = info[x].id
			}
			nodes[id] = circuit.Node{
				Name:  freeTapName(c, sb.String()[start:]),
				Kind:  circuit.KindDFF,
				Fanin: fanin[k : k+1 : k+1],
			}
			chainIDs[k] = id
			k++
		}
		chains[c.Node(x).Name] = chainIDs[first:k:k]
	}
	pin := 0
	for x := 0; x < n; x++ {
		nd := c.Node(circuit.NodeID(x))
		if nd.Kind != circuit.KindGate {
			continue
		}
		fi := fanin[k : k+len(nd.Fanin) : k+len(nd.Fanin)]
		for i := range fi {
			fi[i] = tap(refs[pin])
			pin++
		}
		k += len(fi)
		nodes[info[x].id] = circuit.Node{Name: nd.Name, Kind: circuit.KindGate, Fn: nd.Fn, Fanin: fi}
	}
	poTaps := make([]circuit.NodeID, len(pos))
	for i := range pos {
		poTaps[i] = tap(refs[pin+i])
	}
	rc, err := circuit.FromNodes(c.Name+"_retimed", nodes, poTaps)
	if err != nil {
		return nil, fmt.Errorf("graph: rebuild: %w", err)
	}
	return &Rebuilt{C: rc, Chains: chains, POTaps: poTaps}, nil
}

// freeTapName returns name unless a primary input or gate of c, which
// Rebuild keeps under their own names, already has it; then it returns
// name$K for the smallest K ≥ 1 that names none of them.
func freeTapName(c *circuit.Circuit, name string) string {
	kept := func(s string) bool {
		id, ok := c.Lookup(s)
		return ok && c.Node(id).Kind != circuit.KindDFF
	}
	if !kept(name) {
		return name
	}
	for k := 1; ; k++ {
		if s := name + "$" + strconv.Itoa(k); !kept(s) {
			return s
		}
	}
}
