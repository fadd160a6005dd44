// Package solverstate maintains the transactional state of the
// MinObsWin solver loop (Algorithm 1): the retiming vector, the retimed
// edge weights w_r, the L/R boundary labels of eq. (6), and the
// register-observability objective, all kept consistent under a tentative
// move set I with commit/rollback semantics.
//
// The edge weights, the objective and the P0 negative-edge list are
// updated incrementally from the edges the move touches. The labels are
// lazy: the P0-only path never reads them, and the first label read of a
// transaction runs one full elw.ComputeLabels sweep on the tentative
// retiming, which the transaction keeps until it closes. Nothing else
// keeps labels: the next transaction sweeps its own retiming, and a read
// outside a transaction sweeps the committed one. A sweep cannot fail
// (package elw), so neither can New or Labels; the caller, core.Minimize,
// hands New a legal retiming and an objective weight per edge.
package solverstate

import (
	"slices"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

// Config parameterizes New.
type Config struct {
	// Params are the timing parameters of the L/R labels.
	Params elw.Params
	// ObsInt is the per-edge integer observability (the objective weight
	// of each register), as produced by core.Gains.
	ObsInt []int64
	// Recorder receives the label-fulls counter and the elw-recompute
	// span of every sweep. nil records nothing.
	Recorder telemetry.Recorder
}

// edgeUndo snapshots one edge weight before a move changes it.
type edgeUndo struct {
	e  graph.EdgeID
	wr int32
}

// State is the transactional solver state. All methods must be called
// from one goroutine.
type State struct {
	g   *graph.Graph
	cfg Config
	rec telemetry.Recorder

	r   graph.Retiming // current retiming (tentative while open)
	wr  []int32        // current w_r per edge (tentative while open)
	obj int64          // committed objective Σ obsInt·w_r

	// vertexObsDelta[v] = Σ_in obsInt − Σ_out obsInt: moving v forward by
	// one register changes the objective by −vertexObsDelta[v], so a move
	// delta(v) (negative) contributes delta(v)·vertexObsDelta[v].
	vertexObsDelta []int64

	open    bool
	objTent int64
	moved   []graph.VertexID
	delta   []int32 // tentative per-vertex move, 0 outside I

	edgeMark  []uint32 // epoch stamps deduplicating incident edges
	epoch     uint32
	edgeUndos []edgeUndo
	negEdges  []graph.EdgeID // changed edges with tentative w_r < 0, sorted

	lab *elw.Labels // labels of the open transaction; nil until read
}

// New builds a State for g at retiming r0 (cloned). r0 must be P0-legal:
// the incremental P0 check relies on every committed state having
// non-negative weights, so tentative negatives can only sit on edges the
// move changed. cfg.ObsInt must hold one weight per edge of g.
func New(g *graph.Graph, r0 graph.Retiming, cfg Config) *State {
	s := &State{
		g:              g,
		cfg:            cfg,
		rec:            telemetry.OrNop(cfg.Recorder),
		r:              r0.Clone(),
		wr:             g.EdgeWeights(r0),
		vertexObsDelta: make([]int64, g.NumVertices()),
		delta:          make([]int32, g.NumVertices()),
		edgeMark:       make([]uint32, g.NumEdges()),
	}
	for e := 0; e < g.NumEdges(); e++ {
		eid := graph.EdgeID(e)
		s.obj += cfg.ObsInt[e] * int64(s.wr[e])
		s.vertexObsDelta[g.EdgeTo(eid)] += cfg.ObsInt[e]
		s.vertexObsDelta[g.EdgeFrom(eid)] -= cfg.ObsInt[e]
	}
	s.objTent = s.obj
	return s
}

// Graph returns the underlying graph.
func (s *State) Graph() *graph.Graph { return s.g }

// Open reports whether a transaction is in progress.
func (s *State) Open() bool { return s.open }

// R returns the committed retiming. The transaction must be closed; the
// caller must not modify the slice (copy it to keep it).
func (s *State) R() graph.Retiming {
	if s.open {
		panic("solverstate: R with open transaction")
	}
	return s.r
}

// WR returns the current (tentative while open) retimed weight of e.
func (s *State) WR(e graph.EdgeID) int32 { return s.wr[e] }

// EdgeWeights returns the current per-edge weights, indexed by EdgeID.
// The slice is live — it changes with Begin/Commit/Rollback — and must
// not be modified.
func (s *State) EdgeWeights() []int32 { return s.wr }

// Objective returns Σ obsInt·w_r of the current (tentative) state.
func (s *State) Objective() int64 { return s.objTent }

// CommittedObjective returns the objective of the last committed state.
func (s *State) CommittedObjective() int64 { return s.obj }

// NegativeTentativeEdges returns the edges with tentative w_r < 0, in
// ascending EdgeID order — the same sequence a full P0 scan would report,
// since the committed state is legal and negatives can only appear on
// edges the open move changed. Empty when no transaction is open.
func (s *State) NegativeTentativeEdges() []graph.EdgeID { return s.negEdges }

// Begin opens a transaction moving each vertex of members forward by
// weight(v) registers: r(v) -= weight(v). It updates the edge weights,
// the objective and the negative-edge list immediately; labels wait for
// the first Labels call (the P0-only path never touches them).
func (s *State) Begin(members []int32, weight func(v int32) int32) {
	if s.open {
		panic("solverstate: Begin with open transaction")
	}
	s.open = true
	for _, v := range members {
		d := weight(v)
		if d == 0 || graph.VertexID(v) == graph.Host {
			continue
		}
		s.delta[v] = -d
		s.r[v] -= d
		s.moved = append(s.moved, graph.VertexID(v))
		s.objTent -= int64(d) * s.vertexObsDelta[v]
	}
	s.epoch++
	for _, v := range s.moved {
		for _, dir := range [2][]graph.EdgeID{s.g.Out(v), s.g.In(v)} {
			for _, eid := range dir {
				if s.edgeMark[eid] == s.epoch {
					continue
				}
				s.edgeMark[eid] = s.epoch
				dw := s.delta[s.g.EdgeTo(eid)] - s.delta[s.g.EdgeFrom(eid)]
				if dw == 0 {
					continue
				}
				s.edgeUndos = append(s.edgeUndos, edgeUndo{e: eid, wr: s.wr[eid]})
				s.wr[eid] += dw
				if s.wr[eid] < 0 {
					s.negEdges = append(s.negEdges, eid)
				}
			}
		}
	}
	slices.Sort(s.negEdges)
}

// Labels returns the L/R labels of the current (tentative while open)
// state. The first read of a transaction sweeps the tentative retiming
// with elw.ComputeLabels; later reads of the same transaction return the
// same labels. A read outside a transaction sweeps the committed
// retiming every time.
func (s *State) Labels() *elw.Labels {
	guard.Failpoint("solverstate.Labels")
	if s.lab != nil {
		return s.lab
	}
	s.rec.Count(telemetry.CounterLabelFulls, 1)
	lab := elw.ComputeLabels(s.g, s.r, s.cfg.Params, s.rec)
	if s.open {
		s.lab = lab
	}
	return lab
}

// Commit makes the tentative state the committed one.
func (s *State) Commit() {
	if !s.open {
		panic("solverstate: Commit without transaction")
	}
	s.obj = s.objTent
	s.closeTxn()
}

// Rollback restores the committed state.
func (s *State) Rollback() {
	if !s.open {
		panic("solverstate: Rollback without transaction")
	}
	for i := len(s.edgeUndos) - 1; i >= 0; i-- {
		s.wr[s.edgeUndos[i].e] = s.edgeUndos[i].wr
	}
	for _, v := range s.moved {
		s.r[v] -= s.delta[v]
	}
	s.objTent = s.obj
	s.closeTxn()
}

func (s *State) closeTxn() {
	for _, v := range s.moved {
		s.delta[v] = 0
	}
	s.moved = s.moved[:0]
	s.edgeUndos = s.edgeUndos[:0]
	s.negEdges = s.negEdges[:0]
	s.lab = nil
	s.open = false
}
