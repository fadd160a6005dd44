package retime

import (
	"fmt"

	"serretime/internal/graph"
)

// timing is the timing state the Φ searches probe with (Initialize
// shares one between its two searches): the retiming under test, its
// retimed edge weights w_r, the forward and reverse arrival times, r = 0
// copies of all three that every probe starts from (reset), and the
// scratch of the updates.
//
// move keeps w_r current at once and records each vertex whose set of
// zero-weight fanins (forward) or fanouts (reverse) changed. Arrival times
// are brought up to date only when a pass is about to read them (refresh),
// and only over the zero-weight cone of the recorded vertices. Every value
// comes from the recurrence graph.ArrivalTimes uses, evaluated after all
// of the vertex's zero-weight fanins, so the arrays are bit for bit what a
// from-scratch computation under r gives. Like graph.ArrivalTimes, it
// cannot fail: no retiming closes a zero-weight cycle (package graph).
type timing struct {
	g   *graph.Graph
	r   graph.Retiming
	wr  []int32 // w_r(e) under r, indexed by EdgeID
	wr0 []int32 // w(e): w_r at r = 0

	fwd, rev arrivals

	// crit0 is the largest arrival time at r = 0.
	crit0 float64

	// Scratch of refresh: the cone, its membership marks, each member's
	// count of zero-weight fanins still to be evaluated, and the members
	// ready for evaluation.
	cone   []graph.VertexID
	inCone []bool
	indeg  []int32
	ready  []graph.VertexID
}

// arrivals is one direction's arrival times. Forward, at(v) is
// graph.ArrivalTimes' A(v): d(v) plus the largest at(u) over zero-weight
// in-edges (u, v). Reverse, it is the longest zero-weight path starting
// at v, d(v) included, over out-edges. Edges at the host never count.
type arrivals struct {
	reverse bool
	at, at0 []float64
	// dirty lists the vertices whose zero-weight fanins (fanouts, in
	// reverse) changed since the last refresh; listed marks them.
	dirty  []graph.VertexID
	listed []bool
}

func newArrivals(n int, reverse bool) arrivals {
	return arrivals{
		reverse: reverse,
		at:      make([]float64, n),
		at0:     make([]float64, n),
		dirty:   make([]graph.VertexID, 0, n),
		listed:  make([]bool, n),
	}
}

// newTiming builds the r = 0 state of g: the arrival times come from
// refresh with every vertex recorded.
func newTiming(g *graph.Graph) *timing {
	n := g.NumVertices()
	t := &timing{
		g:      g,
		r:      graph.NewRetiming(g),
		fwd:    newArrivals(n, false),
		rev:    newArrivals(n, true),
		cone:   make([]graph.VertexID, 0, n),
		inCone: make([]bool, n),
		indeg:  make([]int32, n),
		ready:  make([]graph.VertexID, 0, n),
	}
	t.wr0 = g.EdgeWeights(t.r)
	t.wr = append([]int32(nil), t.wr0...)
	for v := 1; v < n; v++ {
		t.fwd.mark(graph.VertexID(v))
		t.rev.mark(graph.VertexID(v))
	}
	t.refresh(&t.fwd)
	t.refresh(&t.rev)
	copy(t.fwd.at0, t.fwd.at)
	copy(t.rev.at0, t.rev.at)
	for _, a := range t.fwd.at0 {
		t.crit0 = max(t.crit0, a)
	}
	return t
}

// reset returns the state to r = 0.
func (t *timing) reset() {
	clear(t.r)
	copy(t.wr, t.wr0)
	t.fwd.reset()
	t.rev.reset()
}

func (a *arrivals) reset() {
	copy(a.at, a.at0)
	for _, v := range a.dirty {
		a.listed[v] = false
	}
	a.dirty = a.dirty[:0]
}

func (a *arrivals) mark(v graph.VertexID) {
	if !a.listed[v] {
		a.listed[v] = true
		a.dirty = append(a.dirty, v)
	}
}

// move retimes v by delta: r(v) += delta, so each in-edge of v gains
// delta registers and each out-edge loses them.
func (t *timing) move(v graph.VertexID, delta int32) {
	t.r[v] += delta
	for _, e := range t.g.In(v) {
		t.shift(e, delta)
	}
	for _, e := range t.g.Out(v) {
		t.shift(e, -delta)
	}
}

// shift adds d to w_r(e). When e enters or leaves the zero-weight
// subgraph, its sink's fanins and its source's fanouts have changed.
func (t *timing) shift(e graph.EdgeID, d int32) {
	w := t.wr[e]
	t.wr[e] = w + d
	if (w == 0) == (w+d == 0) {
		return
	}
	from, to := t.g.EdgeFrom(e), t.g.EdgeTo(e)
	if from == graph.Host || to == graph.Host {
		return
	}
	t.fwd.mark(to)
	t.rev.mark(from)
}

// feeds returns the edges along which at(v) propagates: v's out-edges
// forward, its in-edges in reverse.
func (a *arrivals) feeds(g *graph.Graph, v graph.VertexID) []graph.EdgeID {
	if a.reverse {
		return g.In(v)
	}
	return g.Out(v)
}

// reads returns the edges at(v) is computed from: v's in-edges forward,
// its out-edges in reverse.
func (a *arrivals) reads(g *graph.Graph, v graph.VertexID) []graph.EdgeID {
	if a.reverse {
		return g.Out(v)
	}
	return g.In(v)
}

// across returns the end of e other than v, and whether e belongs to the
// zero-weight subgraph: w_r(e) = 0 and neither end is the host.
func (t *timing) across(e graph.EdgeID, v graph.VertexID) (graph.VertexID, bool) {
	if t.wr[e] != 0 {
		return 0, false
	}
	u := t.g.EdgeFrom(e)
	if u == v {
		u = t.g.EdgeTo(e)
	}
	return u, u != graph.Host
}

// refresh brings a's arrival times up to date with r. It recomputes the
// recorded vertices and everything downstream of them over zero-weight
// edges, in a topological order of that cone; no other value can have
// changed. The cone is acyclic, as the whole zero-weight subgraph is; a
// hand-built graph that fails graph.Check panics here, as it does in
// graph.ZeroWeightTopo.
func (t *timing) refresh(a *arrivals) {
	if len(a.dirty) == 0 {
		return
	}
	g := t.g
	cone := t.cone[:0]
	for _, v := range a.dirty {
		a.listed[v] = false
		t.inCone[v], t.indeg[v] = true, 0
		cone = append(cone, v)
	}
	a.dirty = a.dirty[:0]
	// Close the cone downstream, counting each member's zero-weight fanins
	// inside it; fanins outside the cone already hold their final values.
	for i := 0; i < len(cone); i++ {
		v := cone[i]
		for _, e := range a.feeds(g, v) {
			x, ok := t.across(e, v)
			if !ok {
				continue
			}
			if !t.inCone[x] {
				t.inCone[x], t.indeg[x] = true, 0
				cone = append(cone, x)
			}
			t.indeg[x]++
		}
	}
	ready := t.ready[:0]
	for _, v := range cone {
		if t.indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	done := 0
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		in := 0.0
		for _, e := range a.reads(g, v) {
			if u, ok := t.across(e, v); ok && a.at[u] > in {
				in = a.at[u]
			}
		}
		a.at[v] = in + g.Delay(v)
		for _, e := range a.feeds(g, v) {
			if x, ok := t.across(e, v); ok {
				if t.indeg[x]--; t.indeg[x] == 0 {
					ready = append(ready, x)
				}
			}
		}
	}
	for _, v := range cone {
		t.inCone[v] = false
	}
	t.cone, t.ready = cone, ready
	if done != len(cone) {
		panic(fmt.Sprintf("retime: zero-weight cycle (%d of %d vertices in the cone ordered): the graph fails Check", done, len(cone)))
	}
}
