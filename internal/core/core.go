// Package core implements the paper's contribution: MinObsWin (Algorithm
// 1), the minimum-observability retiming under error-latching window
// constraints, together with the Efficient MinObs baseline obtained by
// disabling the ELW (P2') handling — exactly the reduction Section VI uses
// for comparison.
//
// The algorithm starts from a feasible retiming (Section V initialization,
// applied by rebasing the graph) and iteratively improves the register
// observability objective: the weighted regular forest proposes the
// maximum-gain closed set I = V_P(F); the tentative move (decrease every
// v ∈ I by its weight w(v)) is checked against P0 (register counts), P1'
// (setup / clock period via the L labels) and P2' (shortest-path / ELW via
// the R labels); each violation adds an active constraint to the forest
// (possibly updating a vertex weight through BreakTree); a clean check
// commits the move. The algorithm terminates when V_P(F) is empty.
package core

import (
	"context"
	"fmt"
	"math"

	"serretime/internal/elw"
	"serretime/internal/guard"
	"serretime/internal/solverstate"
	"serretime/internal/telemetry"

	"serretime/internal/graph"
)

const eps = 1e-9

// Violation kinds, used both for diagnostics and for the configurable
// check order (ablation: the paper checks P2', then P0, then P1').
type Kind uint8

const (
	// KindP2 is an error-latching-window (shortest path) violation.
	KindP2 Kind = iota
	// KindP0 is a negative edge register count.
	KindP0
	// KindP1 is a clock period (longest path) violation.
	KindP1
)

func (k Kind) String() string {
	switch k {
	case KindP0:
		return "P0"
	case KindP1:
		return "P1'"
	case KindP2:
		return "P2'"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Engine selects the data structure maintaining the active constraints
// and proposing the candidate move set I.
type Engine uint8

const (
	// EngineClosure (default) keeps the maximum-gain closed set of the
	// active-constraint digraph incrementally and recomputes it exactly,
	// via the max-weight-closure min-cut reduction, whenever the cached
	// set is invalid or not yet proven maximal (every commit and every
	// termination rests on an exact cut). It matches the exact LP optimum
	// on the forward-restricted problem.
	EngineClosure Engine = iota
	// EngineForest uses the paper's weighted regular forest (Section IV).
	// Our reconstruction of the forest restructuring rules from the
	// paper's sketch can over-couple trees and terminate early on rare
	// structures, so it is kept for fidelity and ablation.
	EngineForest
)

// Options configures Minimize.
type Options struct {
	// Phi, Ts, Th are the timing parameters of P1'/P2'.
	Phi, Ts, Th float64
	// Rmin is the shortest-path bound of P2'.
	Rmin float64
	// ELWConstraints enables the P2' handling; disabling it yields the
	// Efficient MinObs baseline of [17] (Section VI: "commenting out
	// Line 9-12 and Line 19-21 in Algorithm 1").
	ELWConstraints bool
	// CheckOrder permutes the violation checks. The default is P0, P2',
	// P1' (structural first — see findViolations); the paper's published
	// order (P2', P0, P1') reaches the same fixpoint and is benchmarked
	// as an ablation.
	CheckOrder []Kind
	// Engine selects the closed-set machinery.
	Engine Engine
	// SingleViolation repairs one violation per iteration, exactly as
	// Algorithm 1 is written. By default all violations of one tentative
	// move are batched per iteration (at most one repair per target
	// vertex), which changes nothing about the fixpoint but avoids a full
	// timing recomputation per constraint on large circuits.
	SingleViolation bool
	// StallSteps arms a progress watchdog: when the committed objective
	// has not improved for this many consecutive steps, Minimize aborts
	// with guard.ErrStalled and returns the best retiming committed so
	// far. 0 disables the watchdog (the step cap of 80·|V|+2000 still
	// bounds the run).
	StallSteps int
	// Recorder receives the run's telemetry: phase spans (positive-set,
	// find-violations, elw-recompute, repair), move/violation counters,
	// and the peak retiming span gauge. nil records nothing (the no-op
	// recorder adds zero allocations to the hot path).
	Recorder telemetry.Recorder
	// WarmStart bulk-seeds every fresh closure engine with the P0
	// requirement closure of the committed state (seedRequirementClosure)
	// instead of letting the loop discover the same constraints one
	// violation batch at a time. Every commit is still verified by
	// findViolations against the authoritative state, so the result is a
	// legal, P1'/P2'-clean retiming, but it is not always the lazy
	// cascade's: the order in which constraints reach the engine can
	// steer MinObsWin to a different fixpoint (s15850.1 at the serve
	// scale; TestSeededVsLazyTableI pins the census, in which every
	// MinObs solve matched). Ignored by EngineForest. Used by the
	// ECO/session path (DESIGN.md §17).
	WarmStart bool
}

// engine abstracts the closed-set machinery shared by Minimize.
type engine interface {
	// PositiveSet returns the candidate move set and a membership mask,
	// computed exactly (authoritative for termination and commits).
	PositiveSet() ([]int32, []bool)
	// PositiveSetFast returns a cheaply-maintained candidate set; the
	// third result reports whether it is authoritative. A false result
	// with an empty set only means the cache is invalid.
	PositiveSetFast() ([]int32, []bool, bool)
	// Weight returns the current move weight of v.
	Weight(v int32) int32
	// SetWeight updates the move weight of q.
	SetWeight(q int32, w int32) error
	// AddConstraint records that p's move forces q's.
	AddConstraint(p, q int32) error
	// Freeze marks v immovable.
	Freeze(v int32)
	// Frozen reports whether v is immovable.
	Frozen(v int32) bool
}

// Result reports the outcome of Minimize.
type Result struct {
	// R is the resulting retiming of the (rebased) graph; R <= 0
	// everywhere (forward moves only).
	R graph.Retiming
	// Rounds is the number of committed improvement rounds (#J).
	Rounds int
	// Steps is the total number of algorithm iterations (tentative moves
	// checked).
	Steps int
	// Objective is Σ_e obsInt(e)·w_r(e), the integer-scaled register
	// observability after retiming; Initial is its starting value.
	Objective, Initial int64
	// Violations counts repaired violations by kind.
	Violations map[Kind]int
}

// Gains computes the per-vertex gain b(v) of Section III-C in integer K
// units: the register-observability reduction obtained by moving one
// register from every fanin edge of v to every fanout edge.
//
//	b(v) = Σ_{e ∈ In(v)} round(K·edgeObs(e)) − outdeg(v)·round(K·obs(v))
//
// (The paper's formula sums obs of the fanout gates; eq. (5) makes clear a
// register on (v,x) carries obs(v), so we read that as a typo — see
// DESIGN.md. GainsLiteral implements the literal formula for ablation.)
// gateObs holds one observability per vertex of g and edgeObs one per
// edge, as package ser maps them.
func Gains(g *graph.Graph, gateObs, edgeObs []float64, k int) ([]int64, []int64) {
	obsInt := make([]int64, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		obsInt[e] = int64(math.Round(float64(k) * edgeObs[e]))
	}
	gains := make([]int64, g.NumVertices())
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if ed.To != graph.Host {
			gains[ed.To] += obsInt[e]
		}
		if ed.From != graph.Host {
			gains[ed.From] -= obsInt[e]
		}
	}
	gains[graph.Host] = 0
	return gains, obsInt
}

// GainsLiteral computes b(v) with the paper's literal formula
// K(Σ_in obs(u) − Σ_out obs(x)), crediting fanout-gate observabilities.
func GainsLiteral(g *graph.Graph, gateObs, edgeObs []float64, k int) ([]int64, []int64) {
	obsInt := make([]int64, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		obsInt[e] = int64(math.Round(float64(k) * edgeObs[e]))
	}
	gains := make([]int64, g.NumVertices())
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if ed.To != graph.Host {
			gains[ed.To] += obsInt[e]
			if ed.From != graph.Host {
				gains[ed.From] -= int64(math.Round(float64(k) * gateObs[ed.To]))
			}
		} else if ed.From != graph.Host {
			// Fanout is the environment; charge the driver's own
			// observability (a boundary register still has obs(u)).
			gains[ed.From] -= obsInt[e]
		}
	}
	gains[graph.Host] = 0
	return gains, obsInt
}

// Objective evaluates Σ_e obsInt(e)·w_r(e).
func Objective(g *graph.Graph, r graph.Retiming, obsInt []int64) int64 {
	var s int64
	for e := 0; e < g.NumEdges(); e++ {
		s += obsInt[e] * int64(g.WR(graph.EdgeID(e), r))
	}
	return s
}

type violation struct {
	kind Kind
	p, q graph.VertexID
	w    int32 // additional movement required of q
}

// violationBuf is findViolations' output, owned by Minimize and reused
// every step: the violations of the last pass and an epoch stamp per
// vertex that keeps at most one violation per target.
type violationBuf struct {
	list  []violation
	seen  []uint32 // seen[q] == epoch: q already has a violation this pass
	epoch uint32
}

// add appends v unless its target already has a violation this pass and
// reports whether the pass reached limit (0: unlimited).
func (b *violationBuf) add(v violation, limit int) bool {
	if b.seen[v.q] == b.epoch {
		return false
	}
	b.seen[v.q] = b.epoch
	b.list = append(b.list, v)
	return limit > 0 && len(b.list) >= limit
}

// Minimize runs Algorithm 1 on g (already rebased to the Section V
// initialization) with per-vertex gains and per-edge integer
// observabilities obsInt, both as Gains sizes them, at the positive
// clock period retime.Initialize derives. The iteration loop checks ctx
// at every step and aborts with an error unwrapping to guard.ErrTimeout
// once it is done. On cancellation (and on a watchdog stall, see
// Options.StallSteps) the returned Result is non-nil and holds the last
// *committed* retiming — a legal, verified-improving prefix of the full
// run that callers may still use — alongside the error.
func Minimize(ctx context.Context, g *graph.Graph, gains []int64, obsInt []int64, opt Options) (*Result, error) {
	// Fault-injection sites: tests arm these to exercise the callers'
	// panic-isolation and degradation paths (guard.Run turns the panic
	// into guard.ErrInternal).
	guard.Failpoint("core.Minimize")
	if opt.ELWConstraints {
		guard.Failpoint("core.Minimize.elw")
	}
	order := opt.CheckOrder
	if len(order) == 0 {
		// Default order puts the structural P0 check first: during long
		// constraint-discovery cascades this avoids recomputing the
		// timing labels entirely (checks stop at the first kind that
		// fires). Algorithm 1's published order (P2', P0, P1') is
		// available through CheckOrder and benchmarked as an ablation;
		// both reach the same fixpoint (see TestCheckOrderInvariance).
		order = []Kind{KindP0, KindP2, KindP1}
	}
	maxSteps := 80*g.NumVertices() + 2000
	params := elw.Params{Phi: opt.Phi, Ts: opt.Ts, Th: opt.Th}
	rec := telemetry.OrNop(opt.Recorder)

	res := &Result{
		R:          graph.NewRetiming(g),
		Violations: map[Kind]int{},
	}
	// The transactional state owns the retiming vector, the retimed edge
	// weights, the L/R labels and the objective; tentative moves are
	// applied with Begin and then either committed or rolled back.
	st := solverstate.New(g, res.R, solverstate.Config{
		Params:   params,
		ObsInt:   obsInt,
		Recorder: opt.Recorder,
	})
	res.Initial = st.Objective()

	newEngine := func() (engine, error) {
		var e engine
		switch opt.Engine {
		case EngineForest:
			fe, err := newForestEngine(g.NumVertices(), gains, rec)
			if err != nil {
				return nil, err
			}
			e = fe
		default:
			e = newClosureEngine(g.NumVertices(), gains)
		}
		e.Freeze(int32(graph.Host))
		if opt.WarmStart {
			if ce, ok := e.(*closureEngine); ok {
				seedRequirementClosure(ce, g, st, gains)
			}
		}
		return e, nil
	}
	eng, err := newEngine()
	if err != nil {
		return nil, err
	}

	// The watchdog observes the committed objective once per step; long
	// constraint-discovery cascades that never reach a clean commit are
	// the stall signature it exists to catch.
	wd := guard.NewWatchdog("core.Minimize", opt.StallSteps)
	committedObj := res.Initial

	maskSnap := make([]bool, g.NumVertices())
	vbuf := &violationBuf{seen: make([]uint32, g.NumVertices())}
	needExact := true
	// curPhase tracks the last inner-loop activity so a timeout or stall
	// observed at the loop head is attributed to the phase the run
	// actually died in (error text and telemetry trace agree).
	curPhase := telemetry.PhaseMinimize.String()
	for res.Steps = 0; res.Steps < maxSteps; res.Steps++ {
		if cerr := guard.CheckpointIn(ctx, "core.Minimize", curPhase); cerr != nil {
			res.Objective = st.CommittedObjective()
			return res, cerr
		}
		wd.Phase = curPhase
		wdResets := wd.Resets()
		serr := wd.Observe(committedObj)
		if d := wd.Resets() - wdResets; d > 0 {
			rec.Count(telemetry.CounterWatchdogResets, int64(d))
		}
		if serr != nil {
			res.Objective = st.CommittedObjective()
			return res, serr
		}
		rec.Count(telemetry.CounterSteps, 1)
		var members []int32
		var mask []bool
		exact := false
		if needExact {
			rec.Count(telemetry.CounterExactClosures, 1)
			rec.SpanStart(telemetry.PhasePositiveSet)
			members, mask = eng.PositiveSet()
			rec.SpanEnd(telemetry.PhasePositiveSet, nil)
			curPhase = telemetry.PhasePositiveSet.String()
			exact = true
			needExact = false
		} else {
			members, mask, exact = eng.PositiveSetFast()
			if mask == nil {
				needExact = true
				continue
			}
		}
		if len(members) == 0 {
			if exact {
				break // optimal: no positive closed set remains
			}
			needExact = true
			continue
		}
		// Tentative move. The mask is snapshotted: repairs may extend the
		// engine's cached set mid-batch, but the bookkeeping must reflect
		// what actually moved in THIS tentative.
		copy(maskSnap, mask)
		st.Begin(members, eng.Weight)
		limit := 0
		if opt.SingleViolation {
			limit = 1
		}
		rec.SpanStart(telemetry.PhaseFindViolations)
		viols, err := findViolations(g, st, maskSnap, params, opt, order, limit, vbuf)
		rec.SpanEnd(telemetry.PhaseFindViolations, err)
		curPhase = telemetry.PhaseFindViolations.String()
		if err != nil {
			st.Rollback()
			return nil, err
		}
		if len(viols) == 0 {
			if !exact {
				// Clean, but the set may not be maximal: recompute the
				// exact closure before committing.
				st.Rollback()
				needExact = true
				continue
			}
			// Commit and start a fresh round.
			st.Commit()
			copy(res.R, st.R())
			res.Rounds++
			rec.Count(telemetry.CounterCommits, 1)
			rec.Gauge(telemetry.GaugePeakRetimingSpan, peakSpan(res.R))
			committedObj = st.CommittedObjective()
			if eng, err = newEngine(); err != nil {
				return nil, err
			}
			needExact = true
			continue
		}
		st.Rollback()
		rec.SpanStart(telemetry.PhaseRepair)
		for i := range viols {
			v := &viols[i]
			res.Violations[v.kind]++
			rec.Count(violationCounter(v.kind), 1)
			if err := repair(eng, v, maskSnap); err != nil {
				rec.SpanEnd(telemetry.PhaseRepair, err)
				return nil, err
			}
		}
		rec.SpanEnd(telemetry.PhaseRepair, nil)
		curPhase = telemetry.PhaseRepair.String()
	}
	if res.Steps >= maxSteps {
		res.Objective = st.CommittedObjective()
		return res, fmt.Errorf("core: step cap %d exceeded (possible oscillation): %w",
			maxSteps, &guard.StallError{Op: "core.Minimize", Phase: curPhase, Steps: maxSteps, Objective: committedObj})
	}
	res.Objective = st.CommittedObjective()
	if err := g.CheckLegal(res.R); err != nil {
		return nil, fmt.Errorf("core: result illegal: %w", err)
	}
	return res, nil
}

// repair integrates one violation into the engine: update q's required
// total movement if it changed (the forest engine runs BreakTree first,
// per Figure 3), then record the constraint (p, q) when p is moving.
func repair(eng engine, v *violation, inI []bool) error {
	q := int32(v.q)
	if eng.Frozen(q) {
		// q cannot move at all: freeze p's tree by linking.
		if !inI[v.p] {
			return fmt.Errorf("core: %v violation anchored at idle vertex %d", v.kind, v.p)
		}
		return eng.AddConstraint(int32(v.p), q)
	}
	cur := eng.Weight(q)
	required := v.w
	if inI[v.q] {
		required += cur
	}
	if required != cur {
		if err := eng.SetWeight(q, required); err != nil {
			return err
		}
	}
	if inI[v.p] && v.p != v.q {
		return eng.AddConstraint(int32(v.p), q)
	}
	if !inI[v.p] && !inI[v.q] && required == cur {
		return fmt.Errorf("core: %v violation with no moving endpoint (p=%d q=%d)", v.kind, v.p, v.q)
	}
	return nil
}

// findViolations checks the tentative state in the configured order and
// returns violations, at most one per target vertex q (repairs to the
// same vertex must be observed sequentially — see Figure 3's weight
// updates). limit > 0 caps the count (1 reproduces Algorithm 1 verbatim);
// an empty result means the move is clean. The result is buf's list,
// valid until the next call.
//
// The labels come from the transaction itself (st.Labels), so every
// check kind of one pass observes labels consistent with the same edge
// weights by construction — the previous lazy recompute-per-pass closure
// could in principle be read against weights repaired since it was
// filled; owning both in one transaction closes that hazard.
func findViolations(g *graph.Graph, st *solverstate.State, inI []bool, params elw.Params, opt Options, order []Kind, limit int, buf *violationBuf) ([]violation, error) {
	wr := st.EdgeWeights()
	buf.list = buf.list[:0]
	buf.epoch++
	for _, k := range order {
		if len(buf.list) > 0 {
			// Repair one kind of violation per iteration: later kinds are
			// checked once the earlier ones are clean (cheap structural
			// checks gate the expensive timing-label checks).
			break
		}
		switch k {
		case KindP0:
			// Negatives can only sit on edges the open move changed (the
			// committed state is legal); the state reports them sorted by
			// EdgeID — the same sequence a full ascending scan finds.
			for _, eid := range st.NegativeTentativeEdges() {
				w := wr[eid]
				ed := g.Edge(eid)
				if !inI[ed.To] {
					return nil, fmt.Errorf("core: P0 violation on edge %d without mover", eid)
				}
				if buf.add(violation{kind: KindP0, p: ed.To, q: ed.From, w: -w}, limit) {
					return buf.list, nil
				}
			}
		case KindP1:
			lb := st.Labels()
			for u := 1; u < g.NumVertices(); u++ {
				uid := graph.VertexID(u)
				if !lb.HasWindow[u] || lb.L[u] >= g.Delay(uid)-eps {
					continue
				}
				z := lb.LT[u]
				if z == uid || !inI[z] {
					return nil, fmt.Errorf("core: P1' violation at %s with endpoint %s outside I (Phi too tight?)",
						g.Name(uid), g.Name(z))
				}
				if buf.add(violation{kind: KindP1, p: z, q: uid, w: 1}, limit) {
					return buf.list, nil
				}
			}
		case KindP2:
			if !opt.ELWConstraints {
				continue
			}
			lb := st.Labels()
			for e := 0; e < g.NumEdges(); e++ {
				eid := graph.EdgeID(e)
				ed := g.Edge(eid)
				if ed.To == graph.Host || wr[eid] <= 0 || !lb.HasWindow[ed.To] {
					continue
				}
				if lb.HoldSlack(g, params, eid) >= opt.Rmin-eps {
					continue
				}
				// The critical shortest path from ed.To ends at z, whose
				// registered (or environment) fanout pins R. The anchor p
				// is whichever end of the shortened path actually moved:
				// the source that pushed the launching register forward
				// (the paper's Figure 2(c)), or z itself when its own move
				// created the pinning register.
				z := lb.RT[ed.To]
				q, w, err := drainTarget(g, wr, z)
				if err != nil {
					return nil, err
				}
				p := ed.From
				if !inI[p] && inI[z] {
					p = z
				}
				if buf.add(violation{kind: KindP2, p: p, q: q, w: w}, limit) {
					return buf.list, nil
				}
			}
		}
	}
	return buf.list, nil
}

// violationCounter maps a violation kind to its telemetry counter.
func violationCounter(k Kind) telemetry.Counter {
	switch k {
	case KindP0:
		return telemetry.CounterViolationsP0
	case KindP1:
		return telemetry.CounterViolationsP1
	default:
		return telemetry.CounterViolationsP2
	}
}

// peakSpan is the largest backward move |r(v)| committed so far (R is
// non-positive under the Section V rebase), reported through the
// peak-retiming-span gauge.
func peakSpan(r graph.Retiming) int64 {
	var peak int64
	for _, rv := range r {
		if s := -int64(rv); s > peak {
			peak = s
		}
	}
	return peak
}

// drainTarget picks the fanout edge of z that pins its R label and returns
// the vertex that must absorb its registers (the host if the pin is a
// primary output, which freezes the tree — the paper's b18 behavior).
func drainTarget(g *graph.Graph, wr []int32, z graph.VertexID) (graph.VertexID, int32, error) {
	var hostPin bool
	for _, eid := range g.Out(z) {
		e := g.Edge(eid)
		if e.To == graph.Host {
			hostPin = true
			continue
		}
		if w := wr[eid]; w > 0 {
			return e.To, w, nil
		}
	}
	if hostPin {
		return graph.Host, 0, nil
	}
	return 0, 0, fmt.Errorf("core: P2' endpoint %s has no pinning fanout", g.Name(z))
}
