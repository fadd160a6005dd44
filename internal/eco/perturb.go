// Package eco generates deterministic netlist perturbations for the
// warm-state session workload: small engineering-change-order edits of a
// base circuit (pin rewires, dead-logic additions and removals, primary
// output changes) that the session API replays as deltas and the bench
// and CI cross-check against cold full solves (DESIGN.md §17).
package eco

import (
	"bytes"
	"fmt"
	"math/rand"

	"serretime"
	"serretime/internal/benchfmt"
	"serretime/internal/circuit"
)

// Gen produces a deterministic stream of single-change deltas for one
// base circuit. It keeps a mirror of the evolving netlist, so
// consecutive deltas are consistent (a rewire can target a gate added
// two deltas ago). The stream depends only on the base circuit and the
// seed.
type Gen struct {
	c       *circuit.Circuit
	rng     *rand.Rand
	added   []string // live eco-added gates, oldest first
	counter int
}

// NewGen starts the mirror at base. Circuits never change, so the
// generator shares base with the caller, and each delta replaces the
// mirror with the circuit serretime.ApplyDeltaOps builds.
func NewGen(base *circuit.Circuit, seed int64) *Gen {
	return &Gen{c: base, rng: rand.New(rand.NewSource(seed))}
}

// Circuit exposes the generator's mirror of the evolving netlist (for
// oracle cross-checks: encode it and solve cold).
func (g *Gen) Circuit() *circuit.Circuit { return g.c }

// Bench encodes the mirror in canonical .bench syntax. Deltas add no
// primary inputs and keep every node's relative order, so a base whose
// primary inputs take the lowest IDs (a parsed .bench does) keeps them
// there, and parsing these bytes reproduces the mirror node for node —
// a cold solve of them is the exact oracle for a warm delta solve.
func (g *Gen) Bench() ([]byte, error) {
	var buf bytes.Buffer
	if err := benchfmt.Write(&buf, g.c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Next generates one delta, applies it to the mirror, and returns its
// ops. The mix is dominated by single-pin rewires — the acceptance
// workload — with periodic gate additions, removals, and PO changes.
func (g *Gen) Next() ([]serretime.DeltaOp, error) {
	i := g.counter
	g.counter++
	var ops []serretime.DeltaOp
	switch {
	case i%4 == 2:
		ops = g.addGate()
	case i%4 == 3 && len(g.added) > 1:
		ops = g.removeGate()
	case i%8 == 5:
		ops = g.togglePO()
	default:
		ops = g.rewire()
	}
	if ops == nil {
		ops = g.rewire()
	}
	if ops == nil {
		return nil, fmt.Errorf("eco: no applicable perturbation for %s (delta %d)", g.c.Name, i)
	}
	c, err := serretime.ApplyDeltaOps(g.c, ops)
	if err != nil {
		return nil, fmt.Errorf("eco: delta %d does not apply to the mirror: %w", i, err)
	}
	g.c = c
	return ops, nil
}

// rewire retargets one pin of a random gate to a cycle-safe driver: a
// PI, a DFF, or a combinationally earlier gate.
func (g *Gen) rewire() []serretime.DeltaOp {
	gates := g.c.NodesOfKind(circuit.KindGate)
	if len(gates) == 0 {
		return nil
	}
	rank := make([]int, g.c.NumNodes())
	for i, id := range g.c.TopoOrder() {
		rank[id] = i
	}
	for attempt := 0; attempt < 64; attempt++ {
		id := gates[g.rng.Intn(len(gates))]
		n := g.c.Node(id)
		if len(n.Fanin) == 0 {
			continue // constant
		}
		pin := g.rng.Intn(len(n.Fanin))
		cand := circuit.NodeID(g.rng.Intn(g.c.NumNodes()))
		cn := g.c.Node(cand)
		if cand == id || cand == n.Fanin[pin] {
			continue
		}
		if cn.Kind == circuit.KindGate && rank[cand] >= rank[id] {
			continue // could close a combinational cycle
		}
		dup := false
		for _, f := range n.Fanin {
			if f == cand {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		fanin := make([]string, len(n.Fanin))
		for j, f := range n.Fanin {
			fanin[j] = g.c.Node(f).Name
		}
		fanin[pin] = cn.Name
		return []serretime.DeltaOp{{Op: "rewire", Name: n.Name, Fanin: fanin}}
	}
	return nil
}

// addGate drops in a fresh observable gate: a 2-input gate over random
// existing nets, declared a primary output so it participates in the
// objective.
func (g *Gen) addGate() []serretime.DeltaOp {
	n := g.c.NumNodes()
	if n < 2 {
		return nil
	}
	a := circuit.NodeID(g.rng.Intn(n))
	b := circuit.NodeID(g.rng.Intn(n))
	if a == b {
		b = circuit.NodeID((int(b) + 1) % n)
	}
	fn := "AND"
	if g.counter%2 == 0 {
		fn = "OR"
	}
	name := fmt.Sprintf("eco_add_%d", g.counter)
	g.added = append(g.added, name)
	return []serretime.DeltaOp{
		{Op: "add_gate", Name: name, Fn: fn, Fanin: []string{g.c.Node(a).Name, g.c.Node(b).Name}},
		{Op: "mark_po", Name: name},
	}
}

// removeGate retires the oldest eco-added gate nothing reads. Added
// gates start as leaves (marked PO), but a later rewire may have picked
// one up as a driver; such gates are live logic now and stay.
func (g *Gen) removeGate() []serretime.DeltaOp {
	for i, name := range g.added {
		id, ok := g.c.Lookup(name)
		if !ok || len(g.c.Node(id).Fanout) != 0 {
			continue
		}
		g.added = append(g.added[:i], g.added[i+1:]...)
		return []serretime.DeltaOp{
			{Op: "unmark_po", Name: name},
			{Op: "rm_node", Name: name},
		}
	}
	return nil
}

// togglePO declares a random non-PO gate a primary output.
func (g *Gen) togglePO() []serretime.DeltaOp {
	gates := g.c.NodesOfKind(circuit.KindGate)
	isPO := make(map[circuit.NodeID]bool)
	for _, p := range g.c.POs() {
		isPO[p] = true
	}
	for attempt := 0; attempt < 32; attempt++ {
		id := gates[g.rng.Intn(len(gates))]
		if isPO[id] {
			continue
		}
		return []serretime.DeltaOp{{Op: "mark_po", Name: g.c.Node(id).Name}}
	}
	return nil
}
