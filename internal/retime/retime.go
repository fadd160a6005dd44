// Package retime implements the classic retiming substrate the paper
// builds on: Leiserson–Saxe min-period retiming (the FEAS algorithm,
// ref. [24]), a setup+hold-aware min-period retiming in the spirit of Lin &
// Zhou (ref. [23]), and the Section V initialization that produces the
// (Φ, Rmin) parameters and initial feasible retiming for MinObsWin.
package retime

import (
	"context"
	"fmt"
	"math"

	"serretime/internal/elw"
	"serretime/internal/graph"
	"serretime/internal/guard"
	"serretime/internal/telemetry"
)

const eps = 1e-9

// grid is the delay quantum: every gate delay graph.FromCircuit assigns
// is a multiple of 0.5, so achievable clock periods lie on this grid and
// the binary search over periods is exact.
const grid = 0.5

// Feasible reports whether retiming r meets clock period phi with setup
// time ts: every combinational arrival time is at most phi − ts.
func Feasible(g *graph.Graph, r graph.Retiming, phi, ts float64) bool {
	if g.CheckLegal(r) != nil {
		return false
	}
	_, crit, err := g.ArrivalTimes(r)
	if err != nil {
		return false
	}
	return crit <= phi-ts+eps
}

// feasPassCap bounds the relaxation pass count. The exact Leiserson–Saxe
// bound is |V| passes, but convergence in practice tracks the logic depth;
// capping keeps infeasible probes cheap on very large graphs at the cost
// of conservatively rejecting some barely-feasible periods (the search
// then settles on a slightly larger, still-valid period).
func feasPassCap(g *graph.Graph) int {
	n := g.NumVertices() + 1
	if n > 512 {
		n = 512
	}
	return n
}

// pass is one Leiserson–Saxe relaxation pass over t.r in a's direction.
// Forward it increments r(v) for every vertex whose arrival time exceeds
// phi − ts (moving registers backward, from fanouts to fanins); in
// reverse it decrements r(v) for every vertex whose reverse arrival time
// does. Arrival times are those at the start of the pass. violated
// reports whether any vertex moved; ok is false when the pass is blocked
// (the move would pull a register out of a zero-weight edge at the
// host, or r has a zero-weight cycle), which ends the relaxation in
// failure.
func (t *timing) pass(a *arrivals, phi, ts float64) (violated, ok bool) {
	if t.refresh(a) != nil {
		return false, false
	}
	g := t.g
	delta := int32(1)
	if a.reverse {
		delta = -1
	}
	for v := graph.VertexID(1); int(v) < g.NumVertices(); v++ {
		if a.at[v] <= phi-ts+eps {
			continue
		}
		// Moving v removes a register from each edge at(v) feeds along;
		// a zero-weight one at the host blocks the move.
		for _, e := range a.feeds(g, v) {
			if t.wr[e] == 0 && (g.EdgeFrom(e) == graph.Host || g.EdgeTo(e) == graph.Host) {
				return false, false
			}
		}
		t.move(v, delta)
		violated = true
	}
	return violated, true
}

// relax repeats pass in a's direction from the current state until no
// vertex violates phi − ts (ok), a pass is blocked or the pass cap is
// reached.
func (t *timing) relax(ctx context.Context, a *arrivals, phi, ts float64) (bool, error) {
	op := "retime.FEAS"
	if a.reverse {
		op = "retime.FEASBackward"
	}
	limit := feasPassCap(t.g)
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, op, telemetry.PhaseInit.String()); cerr != nil {
			return false, cerr
		}
		violated, ok := t.pass(a, phi, ts)
		if !ok {
			return false, nil
		}
		if !violated {
			return true, nil
		}
	}
	return false, nil
}

// result hands the retiming a one-probe state reached to the caller.
func (t *timing) result(ok bool, err error) (graph.Retiming, bool, error) {
	if !ok || err != nil {
		return nil, false, err
	}
	return t.r, true, nil
}

// FEAS runs the Leiserson–Saxe relaxation for the target period phi:
// starting from r = 0, it repeatedly increments r(v) (moving registers
// backward, from fanouts to fanins) for every vertex whose arrival time
// exceeds phi − ts.
//
// The host is never retimed (registers cannot move into the environment),
// so the relaxation reports failure when a violating vertex drives a
// primary output combinationally; FEASBackward covers the symmetric cases.
// Together they form a sound (always-legal) but possibly conservative
// min-period search; see MinPeriod.
func FEAS(ctx context.Context, g *graph.Graph, phi, ts float64) (graph.Retiming, bool, error) {
	t := newTiming(g)
	return t.result(t.relax(ctx, &t.fwd, phi, ts))
}

// FEASBackward is the mirror image of FEAS: it computes required times
// from the sink side and decrements r(v) (moving registers forward) for
// every vertex whose backward path exceeds phi − ts. It covers circuits
// whose critical paths end at primary outputs (where FEAS is blocked).
func FEASBackward(ctx context.Context, g *graph.Graph, phi, ts float64) (graph.Retiming, bool, error) {
	t := newTiming(g)
	return t.result(t.relax(ctx, &t.rev, phi, ts))
}

// tryPeriod attempts phi from r = 0 with both relaxation directions.
// Forward moves (FEASBackward) are preferred: they never pull registers
// out of the environment and tend to reduce the register count.
func (t *timing) tryPeriod(ctx context.Context, phi, ts float64) (bool, error) {
	t.reset()
	if ok, err := t.relax(ctx, &t.rev, phi, ts); ok || err != nil {
		return ok, err
	}
	t.reset()
	return t.relax(ctx, &t.fwd, phi, ts)
}

// searchGrid binary-searches the delay grid for the smallest period in
// [lo, hi] that fits accepts. hi is taken as accepted and never probed;
// the first error fits returns aborts the search.
func searchGrid(lo, hi float64, fits func(phi float64) (bool, error)) (float64, error) {
	for lo < hi-eps {
		mid := snapUp(lo + math.Floor((hi-lo)/(2*grid))*grid)
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + grid
		}
	}
	return hi, nil
}

// probe runs one Φ probe of a search as an init-probe span and, when the
// probe accepts, copies the retiming it reached into *best. searchGrid
// lowers its answer to every accepted period, so the last probe accepted
// ran at the answer's period and *best is the answer's retiming.
func (t *timing) probe(rec telemetry.Recorder, best *graph.Retiming, try func() (bool, error)) (bool, error) {
	rec.SpanStart(telemetry.PhaseInitProbe)
	ok, err := try()
	rec.SpanEnd(telemetry.PhaseInitProbe, err)
	if ok {
		*best = append((*best)[:0], t.r...)
	}
	return ok, err
}

// MinPeriod finds the smallest clock period (on the delay grid) reachable
// by the FEAS/FEASBackward relaxations and a retiming realizing it. This
// is an upper bound on the true minimum period: boundary registers pinned
// at the environment can make some periods unreachable by single-direction
// relaxation.
func MinPeriod(ctx context.Context, g *graph.Graph, ts float64) (graph.Retiming, float64, error) {
	return newTiming(g).minPeriod(ctx, ts, telemetry.Nop)
}

func (t *timing) minPeriod(ctx context.Context, ts float64, rec telemetry.Recorder) (graph.Retiming, float64, error) {
	if t.err0 != nil {
		return nil, 0, t.err0
	}
	var best graph.Retiming
	fits := func(phi float64) (bool, error) {
		return t.probe(rec, &best, func() (bool, error) { return t.tryPeriod(ctx, phi, ts) })
	}
	hi := snapUp(t.crit0 + ts) // the unretimed circuit achieves this
	hi, err := searchGrid(snapUp(t.g.MaxDelay()+ts), hi, fits)
	if err != nil {
		return nil, 0, err
	}
	if best == nil {
		// No probe was accepted, so hi is still the unretimed period,
		// which the search takes as accepted without probing it.
		ok, err := fits(hi)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return graph.NewRetiming(t.g), hi, nil
		}
	}
	return best, hi, nil
}

func snapUp(x float64) float64 { return math.Ceil(x/grid-eps) * grid }

// SetupHold attempts a retiming meeting period phi under both setup (ts)
// and hold (th) constraints: every register-launched longest path fits in
// phi − ts and every register-launched shortest path is at least th.
// It starts from a setup-feasible min-period solution and alternates hold
// repairs (moving a short-path register backward or forward across a
// gate) with FEAS-style setup re-repairs; it can fail on reconvergent
// structures, in which case ok is false (the caller falls back to
// MinPeriod, as the paper prescribes). rec receives the elw-recompute
// spans of the hold checks (nil records nothing).
func SetupHold(ctx context.Context, g *graph.Graph, phi, ts, th float64, rec telemetry.Recorder) (graph.Retiming, bool, error) {
	t := newTiming(g)
	return t.result(t.setupHold(ctx, phi, ts, th, rec))
}

func (t *timing) setupHold(ctx context.Context, phi, ts, th float64, rec telemetry.Recorder) (bool, error) {
	if ok, err := t.tryPeriod(ctx, phi, ts); !ok || err != nil {
		return false, err
	}
	g := t.g
	p := elw.Params{Phi: phi, Ts: ts, Th: th}
	limit := 4*feasPassCap(g) + 16
	bestHold, stall := 1<<30, 0
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, "retime.SetupHold", telemetry.PhaseInit.String()); cerr != nil {
			return false, cerr
		}
		// Hold repairs may have recreated a long path; split it with a
		// setup re-repair pass before checking hold again.
		violated, ok := t.pass(&t.fwd, phi, ts)
		if !ok {
			return false, nil
		}
		if violated {
			continue
		}
		lab, err := elw.ComputeLabels(g, t.r, p, rec)
		if err != nil {
			return false, nil
		}
		// Batch: repair every currently-violated edge in one pass (labels
		// go stale as repairs move registers, but the loop re-verifies).
		repaired, holdV := 0, 0
		for i := 0; i < g.NumEdges(); i++ {
			eid := graph.EdgeID(i)
			to := g.EdgeTo(eid)
			if to == graph.Host || t.wr[eid] <= 0 || !lab.HasWindow[to] {
				continue
			}
			if lab.HoldSlack(g, p, eid) >= th-eps {
				continue
			}
			holdV++
			if t.holdRepair(eid) {
				repaired++
			}
		}
		if holdV == 0 {
			return g.CheckLegal(t.r) == nil, nil
		}
		if repaired == 0 {
			return false, nil
		}
		// Stall detection: repairs that never reduce the violation count
		// are cycling (clustered registers with nowhere to go).
		if holdV < bestHold {
			bestHold, stall = holdV, 0
		} else if stall++; stall > 50 {
			return false, nil
		}
	}
	return false, nil
}

// holdRepair lengthens the short register-launched path on edge eid by
// moving a register forward across the sink gate (spreading clustered
// registers into later logic), or, failing that, backward across the
// source. Reports whether a legal move was found.
func (t *timing) holdRepair(eid graph.EdgeID) bool {
	from, to := t.g.EdgeFrom(eid), t.g.EdgeTo(eid)
	// Forward across the sink: legal iff every in-edge of To keeps
	// w_r >= 0 after r(To)--.
	if to != graph.Host && t.holdsRegisters(t.g.In(to)) {
		t.move(to, -1)
		return true
	}
	// Backward across the source: legal iff every out-edge of From keeps
	// w_r >= 0 after r(From)++.
	if from != graph.Host && t.holdsRegisters(t.g.Out(from)) {
		t.move(from, 1)
		return true
	}
	return false
}

// holdsRegisters reports whether every edge in es carries a register.
func (t *timing) holdsRegisters(es []graph.EdgeID) bool {
	for _, e := range es {
		if t.wr[e] < 1 {
			return false
		}
	}
	return true
}

// minPeriodSetupHold finds the smallest period (on the delay grid) for
// which SetupHold succeeds.
func (t *timing) minPeriodSetupHold(ctx context.Context, ts, th float64, rec telemetry.Recorder) (graph.Retiming, float64, bool, error) {
	if t.err0 != nil {
		return nil, 0, false, nil
	}
	var best graph.Retiming
	fits := func(phi float64) (bool, error) {
		return t.probe(rec, &best, func() (bool, error) { return t.setupHold(ctx, phi, ts, th, rec) })
	}
	lo := snapUp(t.g.MaxDelay() + ts)
	hi := snapUp(t.crit0 + ts)
	if ok, err := fits(hi); err != nil {
		return nil, 0, false, err
	} else if !ok {
		// Try some slack above the unretimed critical path before giving
		// up: hold repairs may need headroom.
		hi2 := snapUp(hi * 1.5)
		if ok, err := fits(hi2); err != nil || !ok {
			return nil, 0, false, err
		}
		lo, hi = hi+grid, hi2
	}
	hi, err := searchGrid(lo, hi, fits)
	if err != nil {
		return nil, 0, false, err
	}
	return best, hi, true, nil
}

// Options configures Initialize.
type Options struct {
	// Ts and Th are the setup and hold times (paper: 0 and 2).
	Ts, Th float64
	// Epsilon is the relaxation applied to the minimal period (paper: 0.10).
	Epsilon float64
	// Recorder receives the initialization's telemetry: one init span over
	// the whole Section V computation, an init-probe span per Φ probe of
	// its min-period searches, and the elw-recompute spans of the probes'
	// hold checks and of the Rmin computation. nil records nothing.
	Recorder telemetry.Recorder
}

// DefaultOptions matches Section V / VI of the paper.
func DefaultOptions() Options { return Options{Ts: 0, Th: 2, Epsilon: 0.10} }

// Init is the starting point Section V hands to MinObsWin.
type Init struct {
	// R is the initial feasible retiming of the input graph.
	R graph.Retiming
	// Phi is the relaxed clock period (1+ε)·Φmin.
	Phi float64
	// PhiMin is the minimal period found before relaxation.
	PhiMin float64
	// Rmin is the shortest-path bound for P2'.
	Rmin float64
	// SetupHoldOK records whether the setup+hold retiming succeeded; when
	// false, the paper's fallback was used: plain min-period retiming and
	// Rmin equal to the minimal gate delay (P2' then never binds).
	SetupHoldOK bool
}

// Initialize computes the initial retiming, relaxed clock period Φ and
// shortest-path bound Rmin per Section V of the paper. Both min-period
// searches probe with one timing state. The searches and hold-repair
// loops check ctx and abort with an error unwrapping to guard.ErrTimeout
// once it is done.
func Initialize(ctx context.Context, g *graph.Graph, o Options) (init *Init, err error) {
	rec := telemetry.OrNop(o.Recorder)
	rec.SpanStart(telemetry.PhaseInit)
	defer func() { rec.SpanEnd(telemetry.PhaseInit, err) }()
	if o.Epsilon < 0 {
		return nil, fmt.Errorf("retime: negative epsilon %g", o.Epsilon)
	}
	init = &Init{}
	t := newTiming(g)
	r, phi, ok, err := t.minPeriodSetupHold(ctx, o.Ts, o.Th, rec)
	if err != nil {
		return nil, err
	}
	if ok {
		init.R = r
		init.PhiMin = phi
		init.SetupHoldOK = true
		init.Phi = snapUp(phi * (1 + o.Epsilon))
		// Rmin: the minimal register-launched shortest path of the
		// initialized circuit (independent of Φ).
		p := elw.Params{Phi: init.Phi, Ts: o.Ts, Th: o.Th}
		lab, err := elw.ComputeLabels(g, r, p, rec)
		if err != nil {
			return nil, err
		}
		if slack, found := lab.MinHoldSlack(g, r, p); found {
			init.Rmin = slack
		} else {
			init.Rmin = g.MinDelay()
		}
		return init, nil
	}
	r, phi, err = t.minPeriod(ctx, o.Ts, rec)
	if err != nil {
		return nil, err
	}
	init.R = r
	init.PhiMin = phi
	init.SetupHoldOK = false
	init.Phi = snapUp(phi * (1 + o.Epsilon))
	init.Rmin = g.MinDelay()
	return init, nil
}
