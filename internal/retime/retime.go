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

// grid is the delay quantum: all delays produced by graph.TypeDelays are
// multiples of 0.5, so achievable clock periods lie on this grid and the
// binary search over periods is exact.
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

// feasPass is one Leiserson–Saxe relaxation pass over r: it increments
// r(v) for every vertex whose arrival time exceeds phi − ts. violated
// reports whether any vertex moved; ok is false when the pass is blocked
// (a violating vertex drives the host over a zero-weight edge, or r
// leaves a zero-weight cycle), which ends the relaxation in failure.
func feasPass(g *graph.Graph, r graph.Retiming, phi, ts float64) (violated, ok bool) {
	arr, _, err := g.ArrivalTimes(r)
	if err != nil {
		return false, false
	}
	for v := 1; v < g.NumVertices(); v++ {
		if arr[v] <= phi-ts+eps {
			continue
		}
		// Incrementing v removes a register from each of its out-edges;
		// a zero-weight edge into the host blocks the move.
		for _, oe := range g.Out(graph.VertexID(v)) {
			if g.Edge(oe).To == graph.Host && g.WR(oe, r) == 0 {
				return false, false
			}
		}
		r[v]++
		violated = true
	}
	return violated, true
}

// FEAS runs the Leiserson–Saxe relaxation for the target period phi:
// it repeatedly increments r(v) (moving registers backward, from fanouts
// to fanins) for every vertex whose arrival time exceeds phi − ts.
//
// The host is never retimed (registers cannot move into the environment),
// so the relaxation reports failure when a violating vertex drives a
// primary output combinationally; FEASBackward covers the symmetric cases.
// Together they form a sound (always-legal) but possibly conservative
// min-period search; see MinPeriod.
func FEAS(ctx context.Context, g *graph.Graph, phi, ts float64) (graph.Retiming, bool, error) {
	r := graph.NewRetiming(g)
	limit := feasPassCap(g)
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, "retime.FEAS", telemetry.PhaseInit.String()); cerr != nil {
			return nil, false, cerr
		}
		violated, ok := feasPass(g, r, phi, ts)
		if !ok {
			return nil, false, nil
		}
		if !violated {
			return r, true, nil
		}
	}
	return nil, false, nil
}

// FEASBackward is the mirror image of FEAS: it computes required times
// from the sink side and decrements r(v) (moving registers forward) for
// every vertex whose backward path exceeds phi − ts. It covers circuits
// whose critical paths end at primary outputs (where FEAS is blocked).
func FEASBackward(ctx context.Context, g *graph.Graph, phi, ts float64) (graph.Retiming, bool, error) {
	r := graph.NewRetiming(g)
	limit := feasPassCap(g)
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, "retime.FEASBackward", telemetry.PhaseInit.String()); cerr != nil {
			return nil, false, cerr
		}
		rarr, err := reverseArrivals(g, r)
		if err != nil {
			return nil, false, nil
		}
		violated := false
		for v := 1; v < g.NumVertices(); v++ {
			if rarr[v] <= phi-ts+eps {
				continue
			}
			// Decrementing v removes a register from each of its
			// in-edges; a zero-weight edge from the host blocks the move.
			for _, ie := range g.In(graph.VertexID(v)) {
				if g.Edge(ie).From == graph.Host && g.WR(ie, r) == 0 {
					return nil, false, nil
				}
			}
			r[v]--
			violated = true
		}
		if !violated {
			return r, true, nil
		}
	}
	return nil, false, nil
}

// reverseArrivals computes, for each vertex v, the maximum delay of a
// zero-weight path starting at v (inclusive of d(v)).
func reverseArrivals(g *graph.Graph, r graph.Retiming) ([]float64, error) {
	order, err := g.ZeroWeightTopo(r)
	if err != nil {
		return nil, err
	}
	rarr := make([]float64, g.NumVertices())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		a := 0.0
		for _, eid := range g.Out(v) {
			e := g.Edge(eid)
			if e.To == graph.Host || g.WR(eid, r) != 0 {
				continue
			}
			if rarr[e.To] > a {
				a = rarr[e.To]
			}
		}
		rarr[v] = a + g.Delay(v)
	}
	return rarr, nil
}

// tryPeriod attempts phi with both relaxation directions. Forward moves
// (FEASBackward) are preferred: they never pull registers out of the
// environment and tend to reduce the register count.
func tryPeriod(ctx context.Context, g *graph.Graph, phi, ts float64) (graph.Retiming, bool, error) {
	if r, ok, err := FEASBackward(ctx, g, phi, ts); ok || err != nil {
		return r, ok, err
	}
	return FEAS(ctx, g, phi, ts)
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

// MinPeriod finds the smallest clock period (on the delay grid) reachable
// by the FEAS/FEASBackward relaxations and a retiming realizing it. This
// is an upper bound on the true minimum period: boundary registers pinned
// at the environment can make some periods unreachable by single-direction
// relaxation.
func MinPeriod(ctx context.Context, g *graph.Graph, ts float64) (graph.Retiming, float64, error) {
	_, crit, err := g.ArrivalTimes(graph.NewRetiming(g))
	if err != nil {
		return nil, 0, err
	}
	hi := snapUp(crit + ts) // the unretimed circuit achieves this
	hi, err = searchGrid(snapUp(g.MaxDelay()+ts), hi, func(phi float64) (bool, error) {
		_, ok, err := tryPeriod(ctx, g, phi, ts)
		return ok, err
	})
	if err != nil {
		return nil, 0, err
	}
	r, ok, err := tryPeriod(ctx, g, hi, ts)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return graph.NewRetiming(g), snapUp(crit + ts), nil
	}
	return r, hi, nil
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
	r, ok, cerr := tryPeriod(ctx, g, phi, ts)
	if cerr != nil {
		return nil, false, cerr
	}
	if !ok {
		return nil, false, nil
	}
	p := elw.Params{Phi: phi, Ts: ts, Th: th}
	limit := 4*feasPassCap(g) + 16
	bestHold, stall := 1<<30, 0
	for it := 0; it < limit; it++ {
		if cerr := guard.CheckpointIn(ctx, "retime.SetupHold", telemetry.PhaseInit.String()); cerr != nil {
			return nil, false, cerr
		}
		// Hold repairs may have recreated a long path; split it with a
		// setup re-repair pass before checking hold again.
		violated, ok := feasPass(g, r, phi, ts)
		if !ok {
			return nil, false, nil
		}
		if violated {
			continue
		}
		lab, err := elw.ComputeLabels(g, r, p, rec)
		if err != nil {
			return nil, false, nil
		}
		// Batch: repair every currently-violated edge in one pass (labels
		// go stale as repairs move registers, but the loop re-verifies).
		repaired, holdV := 0, 0
		for i := 0; i < g.NumEdges(); i++ {
			eid := graph.EdgeID(i)
			e := g.Edge(eid)
			if e.To == graph.Host || g.WR(eid, r) <= 0 || !lab.HasWindow[e.To] {
				continue
			}
			if lab.HoldSlack(g, p, eid) >= th-eps {
				continue
			}
			holdV++
			if holdRepair(g, r, eid) {
				repaired++
			}
		}
		if holdV == 0 {
			if g.CheckLegal(r) != nil {
				return nil, false, nil
			}
			return r, true, nil
		}
		if repaired == 0 {
			return nil, false, nil
		}
		// Stall detection: repairs that never reduce the violation count
		// are cycling (clustered registers with nowhere to go).
		if holdV < bestHold {
			bestHold, stall = holdV, 0
		} else if stall++; stall > 50 {
			return nil, false, nil
		}
	}
	return nil, false, nil
}

// holdRepair lengthens the short register-launched path on edge eid by
// moving a register forward across the sink gate (spreading clustered
// registers into later logic), or, failing that, backward across the
// source. Reports whether a legal move was found.
func holdRepair(g *graph.Graph, r graph.Retiming, eid graph.EdgeID) bool {
	e := g.Edge(eid)
	// Forward across the sink: legal iff every in-edge of To keeps
	// w_r >= 0 after r(To)--.
	if e.To != graph.Host {
		ok := true
		for _, ie := range g.In(e.To) {
			if g.WR(ie, r) < 1 {
				ok = false
				break
			}
		}
		if ok {
			r[e.To]--
			return true
		}
	}
	// Backward across the source: legal iff every out-edge of From keeps
	// w_r >= 0 after r(From)++.
	if e.From != graph.Host {
		ok := true
		for _, oe := range g.Out(e.From) {
			if g.WR(oe, r) < 1 {
				ok = false
				break
			}
		}
		if ok {
			r[e.From]++
			return true
		}
	}
	return false
}

// minPeriodSetupHold finds the smallest period (on the delay grid) for
// which SetupHold succeeds.
func minPeriodSetupHold(ctx context.Context, g *graph.Graph, ts, th float64, rec telemetry.Recorder) (graph.Retiming, float64, bool, error) {
	_, crit, err := g.ArrivalTimes(graph.NewRetiming(g))
	if err != nil {
		return nil, 0, false, nil
	}
	fits := func(phi float64) (bool, error) {
		_, ok, err := SetupHold(ctx, g, phi, ts, th, rec)
		return ok, err
	}
	lo := snapUp(g.MaxDelay() + ts)
	hi := snapUp(crit + ts)
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
	hi, err = searchGrid(lo, hi, fits)
	if err != nil {
		return nil, 0, false, err
	}
	r, ok, err := SetupHold(ctx, g, hi, ts, th, rec)
	return r, hi, ok, err
}

// Options configures Initialize.
type Options struct {
	// Ts and Th are the setup and hold times (paper: 0 and 2).
	Ts, Th float64
	// Epsilon is the relaxation applied to the minimal period (paper: 0.10).
	Epsilon float64
	// Recorder receives the initialization's telemetry: one init span over
	// the whole Section V computation plus the elw-recompute spans of the
	// hold-repair loops. nil records nothing.
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
// shortest-path bound Rmin per Section V of the paper. The min-period
// searches and hold-repair loops check ctx and abort with an error
// unwrapping to guard.ErrTimeout once it is done.
func Initialize(ctx context.Context, g *graph.Graph, o Options) (init *Init, err error) {
	rec := telemetry.OrNop(o.Recorder)
	rec.SpanStart(telemetry.PhaseInit)
	defer func() { rec.SpanEnd(telemetry.PhaseInit, err) }()
	if o.Epsilon < 0 {
		return nil, fmt.Errorf("retime: negative epsilon %g", o.Epsilon)
	}
	init = &Init{}
	r, phi, ok, err := minPeriodSetupHold(ctx, g, o.Ts, o.Th, rec)
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
	r, phi, err = MinPeriod(ctx, g, o.Ts)
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
