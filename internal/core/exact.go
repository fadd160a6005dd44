package core

import (
	"fmt"

	"serretime/internal/graph"
	"serretime/internal/mcf"
)

// canCapture marks vertices whose glitches can ever be latched: those
// reaching the host (a register boundary or primary output lies on the
// way) or reaching a cycle (every cycle permanently carries registers).
// Dangling acyclic cones carry no timing obligation.
func canCapture(g *graph.Graph) []bool {
	n := g.NumVertices()
	cap := make([]bool, n)
	// Reverse reachability from the host.
	stack := []graph.VertexID{graph.Host}
	cap[graph.Host] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, eid := range g.In(v) {
			u := g.Edge(eid).From
			if !cap[u] {
				cap[u] = true
				stack = append(stack, u)
			}
		}
	}
	// Vertices that can reach a cycle (host excluded as an intermediate):
	// trim vertices whose every out-edge leads to a trimmed vertex or the
	// host; survivors reach a cycle.
	outdeg := make([]int32, n)
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if ed.From != graph.Host && ed.To != graph.Host {
			outdeg[ed.From]++
		}
	}
	queue := make([]graph.VertexID, 0, n)
	trimmed := make([]bool, n)
	for v := 1; v < n; v++ {
		if outdeg[v] == 0 {
			queue = append(queue, graph.VertexID(v))
			trimmed[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, eid := range g.In(v) {
			u := g.Edge(eid).From
			if u == graph.Host || trimmed[u] {
				continue
			}
			outdeg[u]--
			if outdeg[u] == 0 {
				trimmed[u] = true
				queue = append(queue, graph.VertexID(u))
			}
		}
	}
	for v := 1; v < n; v++ {
		if !trimmed[v] {
			cap[v] = true // reaches a cycle
		}
	}
	return cap
}

// MinObsExact solves the MinObs retiming (register observability
// minimization under P0 and the clock period constraint P1', without ELW
// constraints) exactly, via the classic W/D-matrix difference-constraint
// program and the min-cost-flow dual — the formulation [17] hands to an LP
// solver. It costs Θ(|V|²) memory and exists to validate the incremental
// algorithm; use Minimize for real work.
//
// forwardOnly restricts the program to r <= 0 (forward moves), the
// direction Algorithm 1 explores; pass false for the unrestricted optimum
// (the gap, if any, measures what a backward phase could add — see
// DESIGN.md).
func MinObsExact(g *graph.Graph, gains []int64, obsInt []int64, phi, ts float64, forwardOnly bool) (*Result, error) {
	if len(gains) != g.NumVertices() {
		return nil, fmt.Errorf("core: gains length mismatch")
	}
	n := g.NumVertices()
	var arcs []mcf.Arc
	if forwardOnly {
		for v := 1; v < n; v++ {
			arcs = append(arcs, mcf.Arc{From: v, To: int(graph.Host), Cost: 0})
		}
	}
	// P0: w(e) + r(v) − r(u) ≥ 0  ⟺  r(u) − r(v) ≤ w(e).
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		arcs = append(arcs, mcf.Arc{From: int(ed.From), To: int(ed.To), Cost: int64(ed.W)})
	}
	// P1': for pairs with D(u,v) > phi − ts, at least one register:
	// r(u) − r(v) ≤ W(u,v) − 1. Pairs ending at a vertex that can never
	// reach a register or primary output (a dangling cone) carry no
	// timing obligation — the label-based check skips them too.
	capture := canCapture(g)
	wd := g.ComputeWD()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if !capture[v] {
				continue
			}
			w := wd.W(graph.VertexID(u), graph.VertexID(v))
			if w == graph.NoPath || (u == v && w == 0) {
				// A self-pair with W=0 is the empty path; a genuine cycle
				// through u is covered by its pairs.
				continue
			}
			if wd.D(graph.VertexID(u), graph.VertexID(v)) > phi-ts+eps {
				arcs = append(arcs, mcf.Arc{From: u, To: v, Cost: int64(w) - 1})
			}
		}
	}
	obj := make([]int64, n)
	for v := 0; v < n; v++ {
		obj[v] = -gains[v]
	}
	sol, err := mcf.Maximize(n, arcs, obj, int(graph.Host))
	if err != nil {
		return nil, fmt.Errorf("core: exact MinObs: %w", err)
	}
	res := &Result{R: graph.NewRetiming(g), Violations: map[Kind]int{}}
	for v := 0; v < n; v++ {
		res.R[v] = int32(sol.R[v])
	}
	res.Initial = Objective(g, graph.NewRetiming(g), obsInt)
	res.Objective = Objective(g, res.R, obsInt)
	if err := g.CheckLegal(res.R); err != nil {
		return nil, fmt.Errorf("core: exact result illegal: %w", err)
	}
	return res, nil
}
