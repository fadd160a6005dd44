// Package elw computes error-latching windows (ELWs) for timing-masking
// analysis of soft errors (Section II-C of the paper).
//
// The ELW of a gate is the set of time points at which a transient glitch
// at the gate's output, if it propagates to a register input, arrives
// inside the register's latching window [Φ−Ts, Φ+Th]. Per eq. (3) it is
// computed by a backward traversal from register inputs and primary
// outputs, shifting each fanout's window left by the fanout's delay and
// taking the union. The package provides both the exact interval-union
// windows and the L/R boundary labels of eq. (6) that the retiming
// formulation constrains. By Theorem 1, L and R are the outer ends of the
// exact window, so a caller that holds the windows (eq. 4's evaluation in
// package ser) reads them there instead of sweeping the labels.
//
// Both sweeps walk the zero-weight subgraph in reverse topological order,
// which exists under every retiming of an extracted graph (package graph:
// a retiming keeps each cycle's register count), so neither can fail.
package elw

import (
	"math"

	"serretime/internal/graph"
	"serretime/internal/interval"
	"serretime/internal/telemetry"
)

// Params are the timing parameters of the analysis. They are not checked
// here: every clock period the toolkit derives is a critical path or a
// relaxation of one, positive because a circuit has a gate of positive
// delay (circuit.FromNodes), and the serretime entry points reject a
// negative or non-finite Φ, Ts or Th before any analysis runs.
type Params struct {
	// Phi is the clock period Φ.
	Phi float64
	// Ts and Th are the register setup and hold times. The paper follows
	// [23] with Ts = 0, Th = 2.
	Ts, Th float64
}

// DefaultParams returns Ts=0, Th=2 with the given clock period.
func DefaultParams(phi float64) Params { return Params{Phi: phi, Ts: 0, Th: 2} }

// LatchWindow returns the base latching window [Φ−Ts, Φ+Th].
func (p Params) LatchWindow() interval.Set {
	return interval.Single(p.Phi-p.Ts, p.Phi+p.Th)
}

// Exact computes the exact interval-union ELW at the output of every
// vertex of g under retiming r, per eq. (3). Index 0 (the host) is the
// empty set. maxIntervals caps the interval count per set (0 = unlimited);
// when exceeded, the smallest gaps are coalesced, which soundly
// over-approximates the window.
func Exact(g *graph.Graph, r graph.Retiming, p Params, maxIntervals int) []interval.Set {
	order := g.ZeroWeightTopo(r)
	base := p.LatchWindow()
	out := make([]interval.Set, g.NumVertices())
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		var s interval.Set
		for _, eid := range g.Out(u) {
			to := g.EdgeTo(eid)
			if to == graph.Host || g.WR(eid, r) > 0 {
				// Latched by a register on this edge (or sampled by the
				// environment at a primary output).
				s.UnionInPlace(base)
				continue
			}
			s.UnionShiftedInPlace(out[to], -g.Delay(to))
		}
		if maxIntervals > 0 && s.Count() > maxIntervals {
			s = coalesce(s, maxIntervals)
		}
		out[u] = s
	}
	return out
}

// coalesce merges the smallest gaps of s until at most max intervals
// remain. The result contains s (sound over-approximation).
func coalesce(s interval.Set, max int) interval.Set {
	ivs := s.Intervals()
	for len(ivs) > max {
		// Find the smallest gap.
		best := 1
		bestGap := ivs[1].L - ivs[0].R
		for i := 2; i < len(ivs); i++ {
			if gap := ivs[i].L - ivs[i-1].R; gap < bestGap {
				bestGap = gap
				best = i
			}
		}
		ivs[best-1].R = ivs[best].R
		ivs = append(ivs[:best], ivs[best+1:]...)
	}
	return interval.MustNew(ivs...)
}

// Labels holds the L/R boundary labels of eq. (6) and the critical-path
// endpoint tracking needed by the MinObsWin active constraints.
type Labels struct {
	// L[v] and R[v] bound the exact ELW of v: L = leftmost boundary,
	// R = rightmost (Theorem 1). Vertices with no path to a register or
	// primary output have HasWindow[v] = false and meaningless L/R.
	L, R      []float64
	HasWindow []bool
	// LT[v] is the endpoint of the critical longest path from v: the
	// vertex whose registered fanout pins L along the binding chain.
	// RT[v] is the analogue for the critical shortest path and R.
	LT, RT []graph.VertexID
}

// ComputeLabels evaluates eq. (6) under retiming r. The computation is
// recorded to rec as one elw-recompute span and counted, making the
// dominant cost of the P1'/P2' checks visible in traces; a nil rec
// records nothing.
func ComputeLabels(g *graph.Graph, r graph.Retiming, p Params, rec telemetry.Recorder) *Labels {
	rec = telemetry.OrNop(rec)
	rec.SpanStart(telemetry.PhaseELWRecompute)
	rec.Count(telemetry.CounterELWRecomputes, 1)
	order := g.ZeroWeightTopo(r)
	lab := newLabels(g.NumVertices())
	wr := g.EdgeWeights(r)
	for i := len(order) - 1; i >= 0; i-- {
		lab.relabelVertex(g, p, wr, order[i])
	}
	rec.SpanEnd(telemetry.PhaseELWRecompute, nil)
	return lab
}

// newLabels returns empty labels for n vertices: no window, L = +Inf,
// R = -Inf, endpoints at the host. relabelVertex fills one vertex.
func newLabels(n int) *Labels {
	lab := &Labels{
		L:         make([]float64, n),
		R:         make([]float64, n),
		HasWindow: make([]bool, n),
		LT:        make([]graph.VertexID, n),
		RT:        make([]graph.VertexID, n),
	}
	for i := range lab.L {
		lab.L[i] = math.Inf(1)
		lab.R[i] = math.Inf(-1)
		lab.LT[i] = graph.Host
		lab.RT[i] = graph.Host
	}
	return lab
}

// relabelVertex recomputes eq. (6) at u in place, reading the retimed
// weight of each out-edge from wr (indexed by EdgeID). Successors of u
// across zero-weight edges must already hold their final labels.
func (lab *Labels) relabelVertex(g *graph.Graph, p Params, wr []int32, u graph.VertexID) {
	lab.L[u] = math.Inf(1)
	lab.R[u] = math.Inf(-1)
	lab.LT[u] = graph.Host
	lab.RT[u] = graph.Host
	lab.HasWindow[u] = false
	for _, eid := range g.Out(u) {
		to := g.EdgeTo(eid)
		if to == graph.Host || wr[eid] > 0 {
			if l := p.Phi - p.Ts; l < lab.L[u] {
				lab.L[u] = l
				lab.LT[u] = u
			}
			if rr := p.Phi + p.Th; rr > lab.R[u] {
				lab.R[u] = rr
				lab.RT[u] = u
			}
			lab.HasWindow[u] = true
			continue
		}
		v := to
		if !lab.HasWindow[v] {
			continue
		}
		if l := lab.L[v] - g.Delay(v); l < lab.L[u] {
			lab.L[u] = l
			lab.LT[u] = lab.LT[v]
		}
		if rr := lab.R[v] - g.Delay(v); rr > lab.R[u] {
			lab.R[u] = rr
			lab.RT[u] = lab.RT[v]
		}
		lab.HasWindow[u] = true
	}
}

// Clone deep-copies the labels.
func (lab *Labels) Clone() *Labels {
	return &Labels{
		L:         append([]float64(nil), lab.L...),
		R:         append([]float64(nil), lab.R...),
		HasWindow: append([]bool(nil), lab.HasWindow...),
		LT:        append([]graph.VertexID(nil), lab.LT...),
		RT:        append([]graph.VertexID(nil), lab.RT...),
	}
}

// FirstDiff returns the first vertex at which lab and other disagree on
// any field (exact float comparison; +Inf/-Inf compare equal to
// themselves), or (Host, false) when they are identical. Tests use it to
// compare labels against a fresh ComputeLabels.
func (lab *Labels) FirstDiff(other *Labels) (graph.VertexID, bool) {
	if len(lab.L) != len(other.L) {
		return graph.Host, true
	}
	for v := range lab.L {
		if lab.HasWindow[v] != other.HasWindow[v] {
			return graph.VertexID(v), true
		}
		if lab.L[v] != other.L[v] || lab.R[v] != other.R[v] {
			return graph.VertexID(v), true
		}
		if lab.LT[v] != other.LT[v] || lab.RT[v] != other.RT[v] {
			return graph.VertexID(v), true
		}
	}
	return graph.Host, false
}

// CheckP1 verifies constraint P1: L(v) >= d(v) for every gate with a
// window (every register-launched longest path fits in Φ−Ts). It returns
// the first violating vertex, or (Host, true) if none.
func (lab *Labels) CheckP1(g *graph.Graph) (graph.VertexID, bool) {
	const eps = 1e-9
	for v := 1; v < g.NumVertices(); v++ {
		if lab.HasWindow[v] && lab.L[v] < g.Delay(graph.VertexID(v))-eps {
			return graph.VertexID(v), false
		}
	}
	return graph.Host, true
}

// HoldSlack returns the length of the shortest path launched by the last
// register on edge (u,v): through gate v (delay d(v)) and on to the
// nearest latch point, i.e. d(v) + Φ + Th − R(v). The quantity is
// independent of Φ (R is pinned at Φ+Th minus the downstream path).
func (lab *Labels) HoldSlack(g *graph.Graph, p Params, eid graph.EdgeID) float64 {
	v := g.EdgeTo(eid)
	return g.Delay(v) + p.Phi + p.Th - lab.R[v]
}

// CheckP2 verifies constraint P2': for every edge (u,v) with w_r > 0 and
// v != host, the register-launched shortest path d(v)+Φ+Th−R(v) is at
// least rmin. It returns the first violating edge, or (-1, true).
func (lab *Labels) CheckP2(g *graph.Graph, r graph.Retiming, p Params, rmin float64) (graph.EdgeID, bool) {
	const eps = 1e-9
	for i := 0; i < g.NumEdges(); i++ {
		eid := graph.EdgeID(i)
		to := g.EdgeTo(eid)
		if to == graph.Host || g.WR(eid, r) <= 0 {
			continue
		}
		if !lab.HasWindow[to] {
			continue
		}
		if lab.HoldSlack(g, p, eid) < rmin-eps {
			return eid, false
		}
	}
	return -1, true
}

// MinHoldSlack returns the minimum register-launched shortest-path length
// over registered edges (the quantity Section V uses to pick Rmin), and
// whether any registered edge exists.
func (lab *Labels) MinHoldSlack(g *graph.Graph, r graph.Retiming, p Params) (float64, bool) {
	mn := math.Inf(1)
	found := false
	for i := 0; i < g.NumEdges(); i++ {
		eid := graph.EdgeID(i)
		to := g.EdgeTo(eid)
		if to == graph.Host || g.WR(eid, r) <= 0 || !lab.HasWindow[to] {
			continue
		}
		if s := lab.HoldSlack(g, p, eid); s < mn {
			mn = s
			found = true
		}
	}
	return mn, found
}
