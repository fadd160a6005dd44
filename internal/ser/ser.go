// Package ser evaluates the soft error rate of a sequential circuit per
// eq. (4) of the paper:
//
//	SER = Σ_gates obs(g)·err(g)·|ELW(g)|/Φ + Σ_regs obs(r)·err(r)·|ELW(r)|/Φ
//
// combining logic masking (observability, package obs), timing masking
// (error-latching windows, package elw) and a per-element raw upset rate
// err(·).
//
// The paper extracts err(g) from SPICE characterization [25]; this module
// substitutes a deterministic synthetic characterization table keyed by
// gate function and fanin that preserves the qualitative trend (bigger,
// higher-drive gates collect less charge per node and have lower raw upset
// rates). Only relative magnitudes shape the optimization.
package ser

import (
	"fmt"
	"math"

	"serretime/internal/circuit"
	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/obs"
)

// RateModel assigns raw soft-error rates (arbitrary FIT-like units).
type RateModel interface {
	// GateRate is err(g) for a combinational gate.
	GateRate(fn circuit.Func, fanin int) float64
	// RegisterRate is err(r) for a flip-flop.
	RegisterRate() float64
}

// SyntheticRates is the default characterization table (SPICE substitute).
type SyntheticRates struct{}

// GateRate implements RateModel.
func (SyntheticRates) GateRate(fn circuit.Func, fanin int) float64 {
	var base float64
	switch fn {
	case circuit.FnConst0, circuit.FnConst1:
		return 0
	case circuit.FnBuf, circuit.FnNot:
		base = 3.0e-5
	case circuit.FnNand, circuit.FnNor:
		base = 2.2e-5
	case circuit.FnAnd, circuit.FnOr:
		base = 2.0e-5
	case circuit.FnXor, circuit.FnXnor:
		base = 1.6e-5
	default:
		base = 2.0e-5
	}
	if fanin > 2 {
		base *= math.Pow(0.9, float64(fanin-2))
	}
	return base
}

// RegisterRate implements RateModel. Flip-flops dominate the raw upset
// rate of modern designs (exposed state nodes), so the synthetic rate sits
// roughly an order of magnitude above a gate's.
func (SyntheticRates) RegisterRate() float64 { return 2.0e-4 }

// Inputs bundles the per-element quantities eq. (4) consumes.
type Inputs struct {
	// GateObs[v] is the observability of vertex v (host entry ignored).
	GateObs []float64
	// EdgeObs[e] is the observability of the net driving edge e: obs of
	// the source gate, or of the originating primary input for host
	// out-edges. Registers on edge e inherit this observability (eq. 5).
	EdgeObs []float64
	// GateRate[v] is err(g) per vertex (host entry ignored).
	GateRate []float64
	// RegRate is err(r) for flip-flops.
	RegRate float64
	// Params are the ELW timing parameters.
	Params elw.Params
	// MaxIntervals caps ELW interval counts (0 = exact).
	MaxIntervals int
}

// VertexRates maps per-vertex err(g) rates for a circuit-extracted graph.
// Index 0 (the host) is zero.
func VertexRates(c *circuit.Circuit, g *graph.Graph, m RateModel) ([]float64, error) {
	if m == nil {
		m = SyntheticRates{}
	}
	rates := make([]float64, g.NumVertices())
	for v := 1; v < g.NumVertices(); v++ {
		n := g.NodeOf(graph.VertexID(v))
		if n == circuit.InvalidNode {
			return nil, fmt.Errorf("ser: vertex %d has no circuit node", v)
		}
		nd := c.Node(n)
		rates[v] = m.GateRate(nd.Fn, len(nd.Fanin))
	}
	return rates, nil
}

// VertexObs maps the observability analysis onto graph vertices. Index 0
// (the host) is zero.
func VertexObs(c *circuit.Circuit, g *graph.Graph, res *obs.Result) ([]float64, error) {
	o := make([]float64, g.NumVertices())
	for v := 1; v < g.NumVertices(); v++ {
		n := g.NodeOf(graph.VertexID(v))
		if n == circuit.InvalidNode {
			return nil, fmt.Errorf("ser: vertex %d has no circuit node", v)
		}
		o[v] = res.GateObs(n)
	}
	return o, nil
}

// EdgeObs computes the per-edge driver observability: obs of the source
// vertex for ordinary edges, obs of the originating primary input for host
// out-edges (the graph merges all PIs into the host, but boundary
// registers keep their own PI's observability).
func EdgeObs(c *circuit.Circuit, g *graph.Graph, gateObs []float64, res *obs.Result) ([]float64, error) {
	if len(gateObs) != g.NumVertices() {
		return nil, fmt.Errorf("ser: gateObs length mismatch")
	}
	eo := make([]float64, g.NumEdges())
	pis := c.PIs()
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		if e.From == graph.Host {
			if int(e.SrcPort) < 0 || int(e.SrcPort) >= len(pis) {
				return nil, fmt.Errorf("ser: host edge %d has bad port %d", i, e.SrcPort)
			}
			eo[i] = res.GateObs(pis[e.SrcPort])
			continue
		}
		eo[i] = gateObs[e.From]
	}
	return eo, nil
}

// EdgeObsFromVertex derives per-edge observabilities from per-vertex ones
// for synthetic graphs, assigning hostObs to every host out-edge.
func EdgeObsFromVertex(g *graph.Graph, gateObs []float64, hostObs float64) []float64 {
	eo := make([]float64, g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		if e.From == graph.Host {
			eo[i] = hostObs
		} else {
			eo[i] = gateObs[e.From]
		}
	}
	return eo
}

// Analysis is the SER breakdown of a circuit under a retiming.
type Analysis struct {
	// Total = Gates + Registers.
	Total float64
	// Gates is the combinational-gate term of eq. (4).
	Gates float64
	// Registers is the register term of eq. (4).
	Registers float64
	// NumRegisters is the per-edge register count (eq. 5 weighting).
	NumRegisters int64
	// SharedRegisters is the physical flip-flop count with max-sharing.
	SharedRegisters int64
	// RegisterObs is Σ obs over registers (eq. 5), the MinObs objective.
	RegisterObs float64
}

// Term is one element's term of eq. (4): a combinational gate, or the
// chain of registers on one edge.
type Term struct {
	// Vertex is the gate of a gate term.
	Vertex graph.VertexID
	// Edge is the edge of a register term.
	Edge graph.EdgeID
	// Regs counts the registers of a register term; 0 marks a gate term.
	Regs int
	// Obs is the element's observability and Window its |ELW|.
	Obs, Window float64
	// SER is the term itself: obs · err · |ELW| / Φ.
	SER float64
}

// Terms evaluates the per-element terms of eq. (4) for graph g under
// retiming r and hands each to fn: every gate in vertex order, then every
// edge carrying registers in edge order. Compute sums them; a ranking of
// the SER contributors lists them.
//
// Register ELWs: the register adjacent to the consuming gate v sees
// ELW(v)−d(v), whose measure equals |ELW(v)|; deeper chain registers and
// registers driving primary outputs see the full latching window Ts+Th.
//
// A register whose launched shortest path is below the hold time Th races
// the downstream capture window: its data transition itself can land
// inside the hold interval, enlarging the susceptible window by the
// shortfall Th − slack. This is the timing-masking degradation the
// paper's P2' constraint exists to prevent (Section III-B); evaluating it
// makes the SER of hold-marginal placements honest.
func Terms(g *graph.Graph, r graph.Retiming, in Inputs, fn func(Term)) error {
	if len(in.GateObs) != g.NumVertices() || len(in.GateRate) != g.NumVertices() {
		return fmt.Errorf("ser: obs/rate length mismatch")
	}
	if len(in.EdgeObs) != g.NumEdges() {
		return fmt.Errorf("ser: edge obs length mismatch")
	}
	if err := g.CheckLegal(r); err != nil {
		return err
	}
	elws, err := elw.Exact(g, r, in.Params, in.MaxIntervals)
	if err != nil {
		return err
	}
	lab, err := elw.ComputeLabels(g, r, in.Params)
	if err != nil {
		return err
	}
	for v := 1; v < g.NumVertices(); v++ {
		w := elws[v].Measure()
		fn(Term{
			Vertex: graph.VertexID(v), Obs: in.GateObs[v], Window: w,
			SER: in.GateObs[v] * in.GateRate[v] * w / in.Params.Phi,
		})
	}
	baseMeasure := in.Params.Ts + in.Params.Th
	for i := 0; i < g.NumEdges(); i++ {
		eid := graph.EdgeID(i)
		k := g.WR(eid, r)
		if k <= 0 {
			continue
		}
		e := g.Edge(eid)
		o := in.EdgeObs[i]
		var adjacent float64
		if e.To == graph.Host {
			adjacent = baseMeasure
		} else {
			adjacent = elws[e.To].Measure()
			if lab.HasWindow[e.To] {
				if shortfall := in.Params.Th - lab.HoldSlack(g, in.Params, eid); shortfall > 0 {
					adjacent += shortfall
				}
			}
		}
		win := adjacent + float64(k-1)*baseMeasure
		fn(Term{
			Edge: eid, Regs: int(k), Obs: o, Window: win,
			SER: o * in.RegRate * win / in.Params.Phi,
		})
	}
	return nil
}

// Compute evaluates eq. (4) for graph g under retiming r: the sum of its
// Terms, gates and registers accumulated separately.
func Compute(g *graph.Graph, r graph.Retiming, in Inputs) (*Analysis, error) {
	a := &Analysis{}
	err := Terms(g, r, in, func(t Term) {
		if t.Regs == 0 {
			a.Gates += t.SER
			return
		}
		a.NumRegisters += int64(t.Regs)
		a.RegisterObs += t.Obs * float64(t.Regs)
		a.Registers += t.SER
	})
	if err != nil {
		return nil, err
	}
	a.SharedRegisters = g.SharedRegisters(r)
	a.Total = a.Gates + a.Registers
	return a, nil
}

// SumRegisterObs evaluates eq. (5): Σ_(u,v) obs(u)·w_r(u,v), the quantity
// MinObs retiming minimizes, using per-edge driver observabilities.
func SumRegisterObs(g *graph.Graph, r graph.Retiming, edgeObs []float64) float64 {
	var s float64
	for i := 0; i < g.NumEdges(); i++ {
		eid := graph.EdgeID(i)
		if k := g.WR(eid, r); k > 0 {
			s += edgeObs[i] * float64(k)
		}
	}
	return s
}
