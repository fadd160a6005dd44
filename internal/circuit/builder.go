package circuit

import "fmt"

// Builder assembles a Circuit from name-based declarations that may contain
// forward references (a gate may read a net declared later, as is normal in
// netlist files and mandatory for feedback through flip-flops).
type Builder struct {
	name    string
	decls   []decl
	poNames []string
}

type decl struct {
	name   string
	kind   Kind
	fn     Func
	fanins []string
}

// NewBuilder returns an empty builder for a design with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// SetName replaces the design name (parsers use it when the netlist text
// itself carries a name that overrides the filename-derived fallback).
func (b *Builder) SetName(name string) { b.name = name }

// PI declares a primary input net.
func (b *Builder) PI(name string) *Builder {
	b.decls = append(b.decls, decl{name: name, kind: KindPI})
	return b
}

// Gate declares a combinational gate reading the given nets.
func (b *Builder) Gate(name string, fn Func, fanin ...string) *Builder {
	b.decls = append(b.decls, decl{name: name, kind: KindGate, fn: fn, fanins: append([]string(nil), fanin...)})
	return b
}

// DFF declares a D flip-flop reading net d.
func (b *Builder) DFF(name, d string) *Builder {
	b.decls = append(b.decls, decl{name: name, kind: KindDFF, fanins: []string{d}})
	return b
}

// PO marks a net as a primary output. The net may be declared before or
// after this call.
func (b *Builder) PO(name string) *Builder {
	b.poNames = append(b.poNames, name)
	return b
}

// Build resolves all references and returns a validated Circuit. Nodes
// get IDs in declaration order; the rest is FromNodes.
func (b *Builder) Build() (*Circuit, error) {
	byName := make(map[string]NodeID, len(b.decls))
	pins := 0
	for i, d := range b.decls {
		if d.name == "" {
			return nil, fmt.Errorf("circuit builder %q: empty net name", b.name)
		}
		if _, dup := byName[d.name]; dup {
			return nil, fmt.Errorf("circuit builder %q: duplicate net %q", b.name, d.name)
		}
		byName[d.name] = NodeID(i)
		pins += len(d.fanins)
	}
	nodes := make([]Node, len(b.decls))
	flat := make([]NodeID, pins)
	for i, d := range b.decls {
		nodes[i] = Node{Name: d.name, Kind: d.kind, Fn: d.fn}
		if len(d.fanins) == 0 {
			continue
		}
		fanin := flat[:len(d.fanins):len(d.fanins)]
		flat = flat[len(d.fanins):]
		for j, fn := range d.fanins {
			fid, ok := byName[fn]
			if !ok {
				return nil, fmt.Errorf("circuit builder %q: node %q reads undeclared net %q", b.name, d.name, fn)
			}
			fanin[j] = fid
		}
		nodes[i].Fanin = fanin
	}
	pos := make([]NodeID, len(b.poNames))
	for i, po := range b.poNames {
		id, ok := byName[po]
		if !ok {
			return nil, fmt.Errorf("circuit builder %q: OUTPUT of undeclared net %q", b.name, po)
		}
		pos[i] = id
	}
	return assemble(b.name, nodes, byName, pos)
}

// FromNodes builds a circuit from complete nodes: node i gets ID i, and
// each Fanin lists node IDs in pin order, forward references allowed (a
// flip-flop may read a gate that comes after it). It rejects a node with
// the wrong number of fanins, a combinational cycle, a loop of
// flip-flops with no gate and a circuit with no gate other than
// CONST0/CONST1, and keeps the topological order. Fanout is
// derived, deduplicated and in ascending ID order, replacing whatever the
// caller set. pos lists the primary outputs in declaration order; a
// repeated entry counts once, at its first position. The circuit takes
// ownership of nodes but keeps no reference to pos; it only reads the
// Fanin slices, so they may be shared with another circuit.
func FromNodes(name string, nodes []Node, pos []NodeID) (*Circuit, error) {
	byName := make(map[string]NodeID, len(nodes))
	for i := range nodes {
		nm := nodes[i].Name
		if nm == "" {
			return nil, fmt.Errorf("circuit %q: node %d has an empty net name", name, i)
		}
		if _, dup := byName[nm]; dup {
			return nil, fmt.Errorf("circuit %q: duplicate net %q", name, nm)
		}
		byName[nm] = NodeID(i)
	}
	return assemble(name, nodes, byName, pos)
}

// assemble is FromNodes after name resolution: byName already maps every
// node's unique name to its index. Fanouts are counted, then filled into
// one shared array in ascending reader order, each node's list capped at
// its own length.
func assemble(name string, nodes []Node, byName map[string]NodeID, pos []NodeID) (*Circuit, error) {
	c := &Circuit{Name: name, nodes: nodes, byName: byName}
	n := len(nodes)
	// mark dedups a reader's repeated pins, and repeated POs, with an
	// epoch stamp per node: one allocation for the whole build.
	mark := make([]uint32, n)
	var epoch uint32
	// end[f+1] counts the distinct readers of f; the prefix sum turns
	// end[f] into the first slot of f's list, and the fill below
	// advances it to the slot after f's last reader.
	end := make([]int32, n+1)
	for i := range nodes {
		epoch++
		for _, f := range nodes[i].Fanin {
			if int(f) < 0 || int(f) >= n {
				return nil, fmt.Errorf("circuit %q: node %q references unknown fanin %d", name, nodes[i].Name, f)
			}
			if mark[f] == epoch {
				continue
			}
			mark[f] = epoch
			end[f+1]++
		}
		if nodes[i].Kind == KindPI {
			c.pis = append(c.pis, NodeID(i))
		}
	}
	for f := 0; f < n; f++ {
		end[f+1] += end[f]
	}
	flat := make([]NodeID, end[n])
	for i := range nodes {
		epoch++
		for _, f := range nodes[i].Fanin {
			if mark[f] == epoch {
				continue
			}
			mark[f] = epoch
			flat[end[f]] = NodeID(i)
			end[f]++
		}
	}
	var start int32
	for f := range nodes {
		if e := end[f]; e > start {
			nodes[f].Fanout = flat[start:e:e]
			start = e
		} else {
			nodes[f].Fanout = nil
		}
	}
	epoch++
	if len(pos) > 0 {
		c.pos = make([]NodeID, 0, len(pos))
	}
	for _, p := range pos {
		if int(p) < 0 || int(p) >= n {
			return nil, fmt.Errorf("circuit %q: primary output of unknown node %d", name, p)
		}
		if mark[p] == epoch {
			continue
		}
		mark[p] = epoch
		c.pos = append(c.pos, p)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}
