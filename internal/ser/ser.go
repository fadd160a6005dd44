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

// GateRate is err(g) for a combinational gate of function fn: the
// synthetic characterization table (SPICE substitute), in arbitrary
// FIT-like units.
func GateRate(fn circuit.Func, fanin int) float64 {
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

// RegisterRate is err(r) for a flip-flop, in GateRate's units. Flip-flops
// dominate the raw upset rate of modern designs (exposed state nodes), so
// the synthetic rate sits roughly an order of magnitude above a gate's.
const RegisterRate = 2.0e-4

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

// VertexRates maps per-vertex err(g) rates (GateRate) for a
// circuit-extracted graph. Index 0 (the host) is zero.
func VertexRates(c *circuit.Circuit, g *graph.Graph) []float64 {
	rates := make([]float64, g.NumVertices())
	for v := 1; v < g.NumVertices(); v++ {
		nd := c.Node(g.NodeOf(graph.VertexID(v)))
		rates[v] = GateRate(nd.Fn, len(nd.Fanin))
	}
	return rates
}

// VertexObs maps the observability analysis onto the vertices of a
// circuit-extracted graph. Index 0 (the host) is zero.
func VertexObs(g *graph.Graph, res *obs.Result) []float64 {
	o := make([]float64, g.NumVertices())
	for v := 1; v < g.NumVertices(); v++ {
		o[v] = res.GateObs(g.NodeOf(graph.VertexID(v)))
	}
	return o
}

// EdgeObs computes the per-edge driver observability of the circuit c was
// extracted from: obs of the source vertex for ordinary edges, obs of the
// originating primary input for host out-edges (the graph merges all PIs
// into the host, but boundary registers keep their own PI's
// observability). gateObs is VertexObs of g.
func EdgeObs(c *circuit.Circuit, g *graph.Graph, gateObs []float64, res *obs.Result) []float64 {
	eo := make([]float64, g.NumEdges())
	pis := c.PIs()
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		if e.From == graph.Host {
			eo[i] = res.GateObs(pis[e.SrcPort])
			continue
		}
		eo[i] = gateObs[e.From]
	}
	return eo
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
// makes the SER of hold-marginal placements honest. The slack is
// d(v) + Φ + Th − R(v), and by Theorem 1 the R(v) label of eq. (6) is the
// right end of the exact window ELW(v), so the windows of eq. (3) give it
// without a label sweep.
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
		} else if w := elws[e.To]; !w.Empty() {
			adjacent = w.Measure()
			slack := g.Delay(e.To) + in.Params.Phi + in.Params.Th - w.Max()
			if shortfall := in.Params.Th - slack; shortfall > 0 {
				adjacent += shortfall
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
